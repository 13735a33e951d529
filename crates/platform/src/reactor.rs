//! Non-blocking connection plumbing for the daemon's sharded reactor.
//!
//! PR 3/4 served every agent with a dedicated blocking thread; at a
//! thousand agents that is a thousand stacks and a thousand schedulable
//! readers for a workload that is almost entirely idle.  The daemon now
//! runs a small pool of reactor shards instead: each shard owns a set of
//! non-blocking connections and drives them from one loop — read what is
//! readable, decode complete frames, flush what is writable — so one
//! thread multiplexes registration, heartbeats and chunk ingest across
//! hundreds of sockets.
//!
//! Two pieces live here:
//!
//! * [`Outbox`] — a per-connection outbound byte queue.  Everything the
//!   daemon says to an agent (acks, config pushes, shutdown orders) is
//!   *enqueued*; only the owning shard writes to the socket,
//!   non-blockingly, so a slow agent can never stall the supervision or
//!   merge paths behind a blocking `write_all`.
//! * [`ReactorConn`] — one non-blocking connection: the stream, its
//!   incremental frame decoder and its outbox, plus the registration
//!   state the shard needs (which agent the connection authenticated as,
//!   when it must have registered by, when it last spoke, and how long a
//!   partial frame has been dangling — the hostile-peer reaping inputs).
//!
//! The daemon end of a connection is never impaired: link impairment
//! ([`crate::impair`]) lives in the agent's [`crate::conn::ControlConn`],
//! which schedules both directions.
//!
//! A shard with nothing to do blocks in [`wait_io`] until one of its
//! sockets is ready, its [`Waker`] fires or its next deadline comes
//! (DESIGN §3p).

use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use edonkey_net::would_block;
use edonkey_proto::codec::FrameDecoder;
use edonkey_proto::control::{ControlEvent, ControlFraming};
use netsim::sync::lock;

use crate::messages::ControlMessage;

/// Upper bound on bytes read per connection per loop pass, so one
/// firehosing agent cannot monopolise its shard.
const READ_BUDGET: usize = 256 * 1024;

/// Rouses a reactor shard blocked in [`wait_io`]: a byte on a socket pair
/// only the shard reads.  `armed` coalesces wake-ups, so a busy shard
/// costs its producers one atomic swap per wake, not one `write`.
pub(crate) struct Waker {
    armed: AtomicBool,
    #[cfg(unix)]
    tx: std::os::unix::net::UnixStream,
    #[cfg(unix)]
    rx: std::os::unix::net::UnixStream,
}

impl Waker {
    pub(crate) fn new() -> std::io::Result<Arc<Waker>> {
        #[cfg(unix)]
        {
            let (tx, rx) = std::os::unix::net::UnixStream::pair()?;
            tx.set_nonblocking(true)?;
            rx.set_nonblocking(true)?;
            Ok(Arc::new(Waker { armed: AtomicBool::new(false), tx, rx }))
        }
        #[cfg(not(unix))]
        Ok(Arc::new(Waker { armed: AtomicBool::new(false) }))
    }

    /// Makes the shard's current or next wait return.  Call it *after*
    /// the change the shard must see.
    pub(crate) fn wake(&self) {
        if !self.armed.swap(true, Ordering::SeqCst) {
            #[cfg(unix)]
            let _ = (&self.tx).write(&[1]);
        }
    }

    /// Shard side, after a wait: consumes the pending wake byte, then
    /// re-arms.  In that order a wake racing the reset is either seen by
    /// the pass that follows (its change came before its swap) or leaves
    /// a byte the next wait returns on — never lost.
    fn reset(&self) {
        #[cfg(unix)]
        {
            use std::io::Read;
            let mut sink = [0u8; 64];
            while matches!((&self.rx).read(&mut sink), Ok(n) if n > 0) {}
        }
        self.armed.store(false, Ordering::SeqCst);
    }
}

/// Outbound byte queue of one connection.  Producers (merge thread,
/// supervision, `finish`) enqueue frames from any thread; the owning
/// reactor shard drains it to the socket without blocking.
pub(crate) struct Outbox {
    buf: Mutex<Vec<u8>>,
    /// The owning shard's waker.
    waker: Arc<Waker>,
}

impl Outbox {
    pub(crate) fn new(waker: &Arc<Waker>) -> Arc<Outbox> {
        Arc::new(Outbox { buf: Mutex::new(Vec::new()), waker: waker.clone() })
    }

    /// Enqueues one typed message as a complete frame and wakes the
    /// owning shard to write it.
    pub(crate) fn push_msg(&self, msg: &ControlMessage) {
        lock(&self.buf).extend_from_slice(&msg.encode_frame());
        self.waker.wake();
    }

    /// Bytes waiting to be written.
    pub(crate) fn pending(&self) -> usize {
        lock(&self.buf).len()
    }

    /// Writes as much of the queue as the socket will take right now.
    /// `Ok(true)` means the queue is empty; `Ok(false)` means the socket
    /// would block with bytes still queued.  `Err` is fatal to the
    /// connection.
    pub(crate) fn flush(&self, stream: &mut TcpStream) -> std::io::Result<bool> {
        let mut buf = lock(&self.buf);
        let mut written = 0usize;
        while written < buf.len() {
            match stream.write(&buf[written..]) {
                Ok(0) => {
                    buf.drain(..written);
                    return Err(std::io::ErrorKind::WriteZero.into());
                }
                Ok(n) => written += n,
                Err(e) if would_block(&e) => {
                    buf.drain(..written);
                    return Ok(false);
                }
                Err(e) => {
                    buf.drain(..written);
                    return Err(e);
                }
            }
        }
        buf.clear();
        Ok(true)
    }
}

/// Why a connection left its shard.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum CloseReason {
    /// The peer closed or the socket died.
    Gone,
    /// The agent completed a clean `Goodbye`.
    Goodbye,
    /// No `Register` arrived within the handshake deadline.
    HandshakeTimeout,
    /// A registered connection went silent past the idle limit.
    IdleTimeout,
    /// A partial frame dangled past the slow-loris read budget.
    SlowLoris,
    /// Fatal framing violation: bad magic/version or an oversized frame.
    Protocol,
}

/// What the shard knows and decides about the agent behind one
/// connection: the part of a [`ReactorConn`] the frame handlers change
/// while the frame they handle is still lent out of its decoder.
pub(crate) struct Session {
    pub(crate) outbox: Arc<Outbox>,
    /// Set once the connection registers; index into the daemon's slots.
    pub(crate) agent: Option<usize>,
    /// Close decision taken during event processing; the shard reaps the
    /// connection (with bookkeeping) at the end of the pass.
    pub(crate) close: Option<CloseReason>,
}

/// One non-blocking connection owned by a reactor shard.
pub(crate) struct ReactorConn {
    pub(crate) stream: TcpStream,
    decoder: FrameDecoder<ControlFraming>,
    pub(crate) session: Session,
    /// Registration deadline for connections that have not authenticated.
    pub(crate) opened: Instant,
    /// Last instant the socket yielded bytes (idle reaping input).
    pub(crate) last_read: Instant,
    /// Since when the decoder has held an incomplete frame (slow-loris
    /// reaping input); `None` while the stream sits at a frame boundary.
    pub(crate) partial_since: Option<Instant>,
}

impl ReactorConn {
    /// Adopts an accepted stream for the shard `waker` rouses: non-blocking,
    /// Nagle off, frames with a declared payload above `max_frame_bytes`
    /// fatal.
    pub(crate) fn adopt(
        stream: TcpStream,
        max_frame_bytes: u32,
        waker: &Arc<Waker>,
    ) -> std::io::Result<ReactorConn> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true).ok();
        Ok(ReactorConn {
            stream,
            decoder: FrameDecoder::with_framing(ControlFraming::capped(max_frame_bytes)),
            session: Session { outbox: Outbox::new(waker), agent: None, close: None },
            opened: Instant::now(),
            last_read: Instant::now(),
            partial_since: None,
        })
    }

    /// Reads whatever the socket has (up to the per-pass budget) straight
    /// into the decoder and hands every completed frame, lent from the
    /// decoder's buffer, to `on_frame` in arrival order.  Returns whether
    /// any bytes arrived.  A dead socket or a framing violation marks the
    /// connection for close after the frames ahead of it are handled; a
    /// close `on_frame` decides stops the pass.
    pub(crate) fn read_events(
        &mut self,
        mut on_frame: impl FnMut(&mut Session, ControlEvent<'_>),
    ) -> bool {
        let mut total = 0usize;
        let mut activity = false;
        let mut peer_closed = false;
        while total < READ_BUDGET && self.session.close.is_none() {
            match self.decoder.read_from(&mut self.stream) {
                Ok(0) => {
                    peer_closed = true;
                    break;
                }
                Ok(n) => {
                    activity = true;
                    self.last_read = Instant::now();
                    total += n;
                }
                Err(e) if would_block(&e) => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    peer_closed = true;
                    break;
                }
            }
            // Handling what completed before the next read keeps that read
            // sized to the one frame still arriving.
            self.handle_frames(&mut on_frame);
        }
        // Only now may the hangup close the connection: TCP orders it after
        // the data, and on a single core an agent's last upload and its
        // EOF routinely land in the same pass.
        if peer_closed && self.session.close.is_none() {
            self.session.close = Some(CloseReason::Gone);
        }
        // Slow-loris bookkeeping: an incomplete frame parked in the
        // decoder starts (or continues) the partial-frame clock.
        if self.decoder.buffered() > 0 {
            if self.partial_since.is_none() {
                self.partial_since = Some(Instant::now());
            }
        } else {
            self.partial_since = None;
        }
        activity
    }

    /// Lends every complete buffered frame to `on_frame` until the decoder
    /// needs bytes or the connection is marked for close.
    fn handle_frames(&mut self, on_frame: &mut impl FnMut(&mut Session, ControlEvent<'_>)) {
        while self.session.close.is_none() {
            match self.decoder.next_borrowed() {
                Ok(Some(frame)) => on_frame(&mut self.session, frame),
                Ok(None) => return,
                // Bad magic/version or an oversized frame: the stream can
                // never resynchronise — drop the connection.
                Err(_) => self.session.close = Some(CloseReason::Protocol),
            }
        }
    }

    /// Flushes the outbox; a dead socket marks the connection for close.
    pub(crate) fn flush(&mut self) {
        if self.session.close.is_some() || self.session.outbox.pending() == 0 {
            return;
        }
        if self.session.outbox.flush(&mut self.stream).is_err() {
            self.session.close = Some(CloseReason::Gone);
        }
    }
}

/// Blocks the shard until `waker` fires, one of `conns` is readable (with
/// `read`), a connection with bytes for its socket is writable, or
/// `deadline` passes.  Only a pass that found nothing to do comes here
/// (DESIGN §3p).
#[cfg(unix)]
pub(crate) fn wait_io(conns: &[ReactorConn], waker: &Waker, read: bool, deadline: Option<Instant>) {
    use crate::sys::{poll_fds, PollFd, POLLIN, POLLOUT};
    use std::os::unix::io::AsRawFd;

    let mut fds = Vec::with_capacity(conns.len() + 1);
    fds.push(PollFd::new(waker.rx.as_raw_fd(), POLLIN));
    for conn in conns {
        let mut events = if read { POLLIN } else { 0 };
        if conn.session.outbox.pending() > 0 {
            events |= POLLOUT;
        }
        if events != 0 {
            fds.push(PollFd::new(conn.stream.as_raw_fd(), events));
        }
    }
    let timeout = deadline.map(|d| d.saturating_duration_since(Instant::now()));
    if poll_fds(&mut fds, timeout).is_err() {
        // Cannot happen with valid descriptors; never spin on it.
        std::thread::sleep(IDLE_SLEEP);
    }
    if fds[0].revents != 0 {
        waker.reset();
    }
}

/// The portable idle path: a short fixed sleep (no `poll(2)`).
#[cfg(not(unix))]
pub(crate) fn wait_io(
    _conns: &[ReactorConn],
    waker: &Waker,
    _read: bool,
    deadline: Option<Instant>,
) {
    let nap = deadline
        .map_or(IDLE_SLEEP, |d| d.saturating_duration_since(Instant::now()).min(IDLE_SLEEP));
    std::thread::sleep(nap);
    waker.reset();
}

/// Shard sleep per idle pass where `poll(2)` is unavailable (non-unix)
/// or failed.
const IDLE_SLEEP: Duration = Duration::from_micros(500);

#[cfg(test)]
mod tests {
    use super::*;
    use edonkey_proto::control::{opcodes, MAX_CONTROL_PAYLOAD};
    use std::io::Read;
    use std::net::TcpListener;
    use std::time::Duration;

    /// One read pass, appending the opcode of every frame it completed.
    fn read_opcodes(conn: &mut ReactorConn, got: &mut Vec<u8>) -> bool {
        conn.read_events(|_, frame| {
            let (ControlEvent::Frame { opcode, .. } | ControlEvent::Corrupt { opcode }) = frame;
            got.push(opcode);
        })
    }

    #[test]
    fn outbox_flushes_incrementally_under_backpressure() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut tx = TcpStream::connect(addr).unwrap();
        let (rx, _) = listener.accept().unwrap();
        tx.set_nonblocking(true).unwrap();

        // Enqueue far more than the socket buffers hold.
        let outbox = Outbox::new(&Waker::new().unwrap());
        let frame = ControlMessage::ChunkAck { next_seq: 7, window: 32 }.encode_frame();
        let rounds = (8 << 20) / frame.len();
        for _ in 0..rounds {
            outbox.push_msg(&ControlMessage::ChunkAck { next_seq: 7, window: 32 });
        }
        let total = outbox.pending();

        // The first flush must stop at WouldBlock without losing bytes.
        let done = outbox.flush(&mut tx).unwrap();
        assert!(!done, "8 MiB cannot fit in the socket buffer");
        assert!(outbox.pending() < total);

        // Drain the receive side while re-flushing until empty.
        let mut rx = rx;
        rx.set_read_timeout(Some(Duration::from_millis(100))).unwrap();
        let mut received = 0usize;
        let mut buf = vec![0u8; 64 * 1024];
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match rx.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => received += n,
                Err(_) => {}
            }
            if outbox.flush(&mut tx).unwrap() && outbox.pending() == 0 && received >= total {
                break;
            }
            assert!(Instant::now() < deadline, "flush never completed");
        }
        assert_eq!(received, total);
    }

    #[test]
    fn a_wake_from_another_thread_ends_an_idle_wait_once() {
        let waker = Waker::new().unwrap();
        let remote = waker.clone();
        let t = std::thread::spawn(move || {
            remote.wake();
            remote.wake(); // coalesced into the first
        });
        let started = Instant::now();
        wait_io(&[], &waker, true, Some(started + Duration::from_secs(10)));
        assert!(started.elapsed() < Duration::from_secs(5), "the wake-up was lost");
        t.join().unwrap();
        // Whatever of the two wakes the first wait consumed, at most one
        // more wait returns before its deadline, and none after that.
        wait_io(&[], &waker, true, Some(Instant::now() + Duration::from_millis(20)));
        let idle = Instant::now();
        wait_io(&[], &waker, true, Some(idle + Duration::from_millis(20)));
        assert!(idle.elapsed() >= Duration::from_millis(20), "a stale wake-up ended the wait");
    }

    #[test]
    fn reactor_conn_reads_frames_nonblockingly() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut tx = TcpStream::connect(addr).unwrap();
        let (rx, _) = listener.accept().unwrap();
        let mut conn = ReactorConn::adopt(rx, MAX_CONTROL_PAYLOAD, &Waker::new().unwrap()).unwrap();

        let mut events = Vec::new();
        // Nothing sent yet: no events, no close, no blocking.
        assert!(!read_opcodes(&mut conn, &mut events));
        assert!(events.is_empty());
        assert!(conn.session.close.is_none());

        tx.write_all(&ControlMessage::Shutdown.encode_frame()).unwrap();
        tx.flush().unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while events.is_empty() && Instant::now() < deadline {
            read_opcodes(&mut conn, &mut events);
        }
        assert_eq!(events, [opcodes::SHUTDOWN]);

        drop(tx);
        let deadline = Instant::now() + Duration::from_secs(5);
        while conn.session.close.is_none() && Instant::now() < deadline {
            read_opcodes(&mut conn, &mut events);
        }
        assert_eq!(conn.session.close, Some(CloseReason::Gone));
    }

    #[test]
    fn partial_frame_starts_the_slow_loris_clock() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut tx = TcpStream::connect(addr).unwrap();
        let (rx, _) = listener.accept().unwrap();
        let mut conn = ReactorConn::adopt(rx, MAX_CONTROL_PAYLOAD, &Waker::new().unwrap()).unwrap();

        let frame = ControlMessage::Shutdown.encode_frame();
        let mut events = Vec::new();
        // A dribbled header byte: the partial clock must start…
        tx.write_all(&frame[..3]).unwrap();
        tx.flush().unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while conn.partial_since.is_none() && Instant::now() < deadline {
            read_opcodes(&mut conn, &mut events);
        }
        assert!(conn.partial_since.is_some(), "dangling partial frame not noticed");
        assert!(events.is_empty());
        // …and clear once the frame completes.
        tx.write_all(&frame[3..]).unwrap();
        tx.flush().unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while events.is_empty() && Instant::now() < deadline {
            read_opcodes(&mut conn, &mut events);
        }
        assert!(conn.partial_since.is_none(), "completed frame must stop the clock");
    }
}
