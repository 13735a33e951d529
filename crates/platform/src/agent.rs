//! The supervised honeypot agent.
//!
//! An agent is what the paper calls "a honeypot": a process launched by the
//! manager that logs into an eDonkey server, advertises files, logs every
//! query, and periodically ships its log home (§III-A).  Here the process
//! is a thread wrapping [`edonkey_net::HoneypotHost`]; the control side
//! speaks the framed protocol of [`crate::messages`] to the manager
//! daemon:
//!
//! * register (with incarnation and resume flag), receive the resume
//!   sequence, the granted upload window and the full honeypot
//!   configuration;
//! * heartbeat on a fixed period, measuring RTT from the acks;
//! * collect the honeypot log on a fixed period and upload it as
//!   sequenced chunks, **windowed and pipelined**: up to the granted
//!   window of chunks is kept in flight past the cumulative-ack frontier,
//!   every in-flight frame is retained and re-sent (go-back-N on
//!   `ChunkRetry`, whole-window on the resend timer) until a cumulative
//!   `ChunkAck { next_seq }` covers it — across corrupt-frame retries,
//!   connection loss and reconnects;
//! * obey `Shutdown` (flush, say goodbye, exit).  A dead agent is
//!   relaunched by the daemon's supervision as a new incarnation; there
//!   is no in-place restart.
//!
//! Every chunk is recorded in the shared [`ChunkJournal`] *before* it
//! touches the wire, so tests can replay exactly what was sent through the
//! in-process merge pipeline and prove the transport added or lost
//! nothing.
//!
//! With a spool directory the agent is additionally **crash-safe**: every
//! chunk is appended to a durable [`Spool`] before its first send and
//! trimmed only up to the cumulative ack frontier, so a killed
//! incarnation's unacknowledged uploads are replayed by the next one —
//! ahead of any fresh collection, in sequence order — instead of being
//! lost with the process.

use std::collections::VecDeque;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use edonkey_net::HoneypotHost;
use edonkey_proto::control::{encode_control_frame, opcodes};
use honeypot::{Honeypot, HoneypotConfig, IpHasher};
use netsim::rng::stream_seed;
use netsim::Rng;

use crate::conn::{ConnError, ConnEvent, ControlConn};
use crate::diskfault::DiskFaults;
use crate::fault::{FaultPlan, FaultState};
use crate::impair::ImpairPlan;
use crate::journal::ChunkJournal;
use crate::messages::{heartbeat_flags, AgentConfig, ControlMessage};
use crate::obs::{self, HistogramHandle, Registry};
use crate::retry::{Backoff, RetryPolicy};
use crate::spool::{Spool, SpoolRecord};
use netsim::obs_event;

/// How an agent's life ended.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AgentExit {
    /// Orderly: the daemon sent `Shutdown`, the final chunk was flushed
    /// and a `Goodbye` sent.
    Shutdown,
    /// A scripted `kill_after_chunk` fault fired: the agent died without a
    /// goodbye, mid-conversation.
    Killed,
    /// The daemon became unreachable and the agent stopped retrying.
    GaveUp,
}

const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(3);
const RECONNECT_PAUSE: Duration = Duration::from_millis(25);
/// Half-open detection: with the daemon acking every heartbeat, a live
/// link carries inbound traffic at heartbeat cadence; this many heartbeat
/// periods of silence (floored at one second) means the connection is
/// dead even if the kernel never says so, and the agent reconnects.
const DEAD_AFTER_HEARTBEATS: u64 = 8;
/// Failed connect attempts before the agent gives up (the schedule between
/// them comes from [`RetryPolicy::reconnect`]).
const MAX_CONNECT_ATTEMPTS: u32 = 20;
/// Master seed of the agent-side retry jitter streams.
const RETRY_SEED: u64 = 0xA6E2_7E72;
/// A `ChunkRetry` naming the same resume point within this span is a
/// duplicate of one already answered (the daemon coalesces per merge
/// burst, but bursts repeat while resent frames are in flight).
const GOBACK_SUPPRESS: Duration = Duration::from_millis(100);

/// Everything that must survive reconnects.
struct AgentState {
    agent: u32,
    incarnation: u32,
    fault: FaultPlan,
    fstate: FaultState,
    journal: ChunkJournal,
    host: Option<HoneypotHost>,
    /// In-flight uploads past the cumulative-ack frontier, in sequence
    /// order; every frame is kept until a cumulative ack covers it.
    window: VecDeque<InFlight>,
    /// Durable write-ahead spool (None = PR 3 in-memory behaviour).
    spool: Option<Spool>,
    /// Spooled records awaiting re-delivery, rebuilt from the spool at
    /// every session start; drained into the window before fresh collects.
    backlog: VecDeque<SpoolRecord>,
    hb_seq: u64,
    last_rtt_micros: u64,
    started: Instant,
    /// Host status reports already forwarded to the daemon.
    forwarded_status: usize,
    /// The spool stopped accepting writes (full/failing disk); uploads
    /// continue in memory and heartbeats carry the degraded flag until an
    /// append succeeds again.
    spool_degraded: bool,
    /// Chunk round-trip distribution (first send → retiring cumulative
    /// ack, retransmissions included) in the live registry.
    chunk_rtt: HistogramHandle,
}

/// One unacknowledged upload.
struct InFlight {
    seq: u64,
    /// The clean encoded frame (faults doctor a copy, never this).
    frame: Vec<u8>,
    /// First time this sequence went to the wire; the chunk-RTT clock.
    sent_at: Instant,
}

/// The session socket's read timeout: each read blocks until the agent's
/// next own deadline, and the socket option is re-set only when that
/// wait, in whole milliseconds, changes.
#[derive(Default)]
struct ReadTimeout(Option<Duration>);

impl ReadTimeout {
    /// Points the next read at `deadline`, or earlier when the impairment
    /// shim has bytes due first.
    fn until(&mut self, conn: &ControlConn, deadline: Instant) {
        let deadline = conn.next_due().map_or(deadline, |due| due.min(deadline));
        let wait = deadline.saturating_duration_since(Instant::now());
        // Rounded up, so a deadline is never read past early and spun on;
        // at least 1 ms, because a zero timeout is refused.
        let wait = Duration::from_millis((wait.as_micros().div_ceil(1000) as u64).max(1));
        if self.0 != Some(wait) && conn.set_read_timeout(wait).is_ok() {
            self.0 = Some(wait);
        }
    }
}

enum SessionEnd {
    Shutdown,
    Killed,
    ConnLost,
}

impl AgentState {
    fn micros_now(&self) -> u64 {
        self.started.elapsed().as_micros() as u64
    }

    /// The sequence the next fresh collection will carry: one past the
    /// window tail, or the frontier when nothing is in flight.
    fn next_send(&self, frontier: u64) -> u64 {
        self.window.back().map_or(frontier, |f| f.seq + 1).max(frontier)
    }

    fn teardown_host(&mut self) {
        if let Some(host) = self.host.take() {
            // The final collect is discarded: a killed honeypot loses
            // whatever it had not yet shipped, exactly like a crashed
            // process.
            let _ = host.stop();
        }
        self.forwarded_status = 0;
    }
}

/// Fault plan, spool and robustness knobs for [`run_agent`]; `Default`
/// is a plain agent with no spool.
#[derive(Clone, Debug, Default)]
pub struct AgentOptions {
    /// Scripted crash/corruption plan (PR 3 fault model).
    pub fault: FaultPlan,
    /// Durable spool directory; must be stable across incarnations.
    pub spool_dir: Option<PathBuf>,
    /// Deterministic link impairment applied to this agent's control
    /// connections (loss, dup, reorder, delay, rate cap, partitions).
    pub impair: Option<ImpairPlan>,
    /// Injectable spool write faults (ENOSPC/EIO/short write).
    pub spool_faults: Option<DiskFaults>,
}

/// Runs one agent to completion (blocking).  `first_incarnation` is 0 for
/// an initial launch; the daemon's supervisor passes higher numbers when
/// respawning a dead agent.  With `opts.spool_dir`, unacknowledged chunks
/// are spooled durably and a restarted incarnation replays them; the
/// directory must be stable across this agent's incarnations and unique
/// to it.  `opts` also carries the adversarial-robustness knobs: impaired
/// links and failing disks.
pub fn run_agent(
    daemon_addr: SocketAddr,
    agent: u32,
    first_incarnation: u32,
    journal: ChunkJournal,
    opts: AgentOptions,
) -> AgentExit {
    let AgentOptions { fault, spool_dir, impair, spool_faults } = opts;
    let spool = spool_dir.and_then(|dir| match Spool::open(dir) {
        Ok(mut s) => {
            if let Some(faults) = &spool_faults {
                s.set_faults(faults.clone());
            }
            Some(s)
        }
        Err(e) => {
            // Degraded but alive: without the spool the agent still offers
            // PR 3 semantics (resume from the daemon's acked sequence).
            obs_event!(
                obs::Level::Warn,
                "agent",
                "spool_unavailable",
                agent = agent,
                error = obs::InlineStr::new(&e.to_string())
            );
            None
        }
    });
    let mut st = AgentState {
        agent,
        incarnation: first_incarnation,
        fault,
        fstate: FaultState::default(),
        journal,
        host: None,
        window: VecDeque::new(),
        spool,
        backlog: VecDeque::new(),
        hb_seq: 0,
        last_rtt_micros: 0,
        started: Instant::now(),
        forwarded_status: 0,
        spool_degraded: false,
        chunk_rtt: Registry::global().histogram("chunk_rtt_micros"),
    };
    let mut reconnect = Backoff::new(
        RetryPolicy::reconnect(MAX_CONNECT_ATTEMPTS),
        RETRY_SEED ^ u64::from(agent),
        u64::from(first_incarnation),
    );
    loop {
        let mut conn = match ControlConn::connect(daemon_addr) {
            Ok(c) => c,
            Err(_) => match reconnect.next_delay() {
                Some(delay) => {
                    std::thread::sleep(delay);
                    continue;
                }
                None => {
                    st.teardown_host();
                    return AgentExit::GaveUp;
                }
            },
        };
        if let Some(plan) = &impair {
            conn.impair(plan, u64::from(agent));
        }
        // The backoff resets only once a handshake *completes* (inside
        // `session`): a daemon that accepts the socket but never answers
        // still exhausts the reconnect budget instead of looping forever.
        match session(conn, &mut st, &mut reconnect) {
            Ok(SessionEnd::Shutdown) => {
                st.teardown_host();
                return AgentExit::Shutdown;
            }
            Ok(SessionEnd::Killed) => {
                st.teardown_host();
                return AgentExit::Killed;
            }
            Ok(SessionEnd::ConnLost) | Err(_) => {
                // Keep host and in-flight window; reconnect and resume.
                // The pause comes from the same budgeted backoff as a
                // refused connect, so a session that dies before its
                // handshake cannot retry forever.
                match reconnect.next_delay() {
                    Some(delay) => std::thread::sleep(delay.max(RECONNECT_PAUSE)),
                    None => {
                        st.teardown_host();
                        return AgentExit::GaveUp;
                    }
                }
                continue;
            }
        }
    }
}

fn session(
    mut conn: ControlConn,
    st: &mut AgentState,
    reconnect: &mut Backoff,
) -> Result<SessionEnd, ConnError> {
    let mut read_timeout = ReadTimeout::default();
    let resume = st.host.is_some() || !st.window.is_empty() || st.incarnation > 0;
    conn.send(&ControlMessage::Register { agent: st.agent, incarnation: st.incarnation, resume })
        .map_err(ConnError::Io)?;

    // Handshake: RegisterAck (resume point + granted window), ConfigPush.
    let deadline = Instant::now() + HANDSHAKE_TIMEOUT;
    let mut ack: Option<(u64, u32)> = None;
    let mut config: Option<AgentConfig> = None;
    while ack.is_none() || config.is_none() {
        if Instant::now() >= deadline {
            return Ok(SessionEnd::ConnLost);
        }
        read_timeout.until(&conn, deadline);
        for ev in conn.poll()? {
            match ev {
                ConnEvent::Msg(ControlMessage::RegisterAck { agent, next_seq, window })
                    if agent == st.agent =>
                {
                    ack = Some((next_seq, window))
                }
                ConnEvent::Msg(ControlMessage::ConfigPush(cfg)) => config = Some(cfg),
                ConnEvent::Msg(ControlMessage::Shutdown) => {
                    let _ = conn.send(&ControlMessage::Goodbye {
                        agent: st.agent,
                        final_seq: ack.map_or(0, |(s, _)| s),
                    });
                    return Ok(SessionEnd::Shutdown);
                }
                _ => {}
            }
        }
    }
    let ((mut frontier, granted), cfg) = (ack.unwrap(), config.unwrap());
    // The handshake completed: the daemon is demonstrably alive, so the
    // reconnect budget starts over.
    reconnect.reset();
    // The granted window is a *live* grant: every `ChunkAck` re-states it,
    // and an overloaded daemon shrinks it to shed load (backpressure
    // through the existing ack path, no extra message).
    let mut granted = granted.max(1) as usize;

    if st.host.is_none() {
        match start_host(&cfg, st.incarnation) {
            Some(host) => st.host = Some(host),
            None => {
                // Server unreachable; back off and let the daemon's
                // heartbeat deadline decide our fate.
                std::thread::sleep(Duration::from_millis(50));
                return Ok(SessionEnd::ConnLost);
            }
        }
        st.forwarded_status = 0;
    }
    let peer_port = st.host.as_ref().unwrap().peer_addr().port();
    conn.send(&ControlMessage::Ready { agent: st.agent, peer_port }).map_err(ConnError::Io)?;

    // Reconcile the in-flight state with the daemon's resume point.
    if let Some(spool) = &mut st.spool {
        // Durable path: the spool is the source of truth.  Everything the
        // daemon acknowledged is trimmed; everything else becomes the
        // backlog, re-sent in order ahead of fresh collections.  The
        // journal gets the replayed copies too, so a true process restart
        // still satisfies the replay proof.
        if frontier > 0 {
            let _ = spool.trim_acked(frontier - 1);
        }
        st.window.clear();
        st.backlog.clear();
        let replayed = spool.for_each_record(|seq, payload| {
            if let Ok(ControlMessage::LogUpload { agent, seq, chunk }) =
                ControlMessage::decode(opcodes::LOG_CHUNK, payload)
            {
                st.journal.record(agent, seq, chunk);
            }
            st.backlog.push_back(SpoolRecord { seq, payload: payload.to_vec() });
        });
        if let Err(e) = replayed {
            // What was read is re-sent; the rest stays on disk for the
            // next session to try again.
            obs_event!(
                obs::Level::Warn,
                "agent",
                "spool_replay_failed",
                agent = st.agent,
                error = obs::InlineStr::new(&e.to_string())
            );
        }
    } else {
        // In-memory path: drop what the frontier covers, keep the rest.
        while st.window.front().is_some_and(|f| f.seq < frontier) {
            st.window.pop_front();
        }
        // Survivors may never have arrived; re-send them in order.
        for f in &st.window {
            conn.send_raw(&f.frame).map_err(ConnError::Io)?;
        }
    }
    fill_window_from_backlog(&mut conn, st, granted)?;

    // One resend schedule guards the whole window: cumulative progress
    // resets it, silence escalates it (and re-sends everything in flight).
    let mut resend = Backoff::new(
        RetryPolicy::resend(),
        RETRY_SEED ^ u64::from(st.agent),
        u64::from(st.incarnation),
    );
    let mut resend_at: Option<Instant> = None;
    let mut last_goback: Option<(u64, Instant)> = None;

    let mut hb_due = Instant::now();
    let mut collect_due = Instant::now() + Duration::from_millis(cfg.collect_ms);
    let mut shutting_down = false;

    // Half-open detection: the daemon acks every heartbeat, so a live link
    // has inbound traffic at heartbeat cadence.  Sustained silence means
    // the connection is dead (mid-path partition, silently dropped peer)
    // even though the local socket looks healthy.
    let dead_after =
        Duration::from_millis((cfg.heartbeat_ms.saturating_mul(DEAD_AFTER_HEARTBEATS)).max(1000));
    let mut last_heard = Instant::now();

    loop {
        // Resend timer: armed while anything is in flight, fired below by
        // re-sending the whole window (the cumulative ack makes spurious
        // re-sends harmless duplicates).
        if st.window.is_empty() {
            resend_at = None;
        } else if resend_at.is_none() {
            let delay = resend.next_delay().expect("resend schedule is unbounded");
            resend_at = Some(Instant::now() + delay);
        }

        // Block until the next deadline this loop acts on; any inbound
        // frame wakes it sooner.  A fresh collect only counts while it
        // could run; while shutting down only acks and resends do.
        let mut wake_at = resend_at;
        if !shutting_down {
            let collect =
                (st.backlog.is_empty() && st.window.len() < granted).then_some(collect_due);
            wake_at = [wake_at, Some(hb_due), Some(last_heard + dead_after), collect]
                .into_iter()
                .flatten()
                .min();
        }
        read_timeout.until(&conn, wake_at.unwrap_or(last_heard + dead_after));
        let events = match conn.poll() {
            Ok(ev) => ev,
            Err(ConnError::Closed) | Err(ConnError::Io(_)) => return Ok(SessionEnd::ConnLost),
            Err(e) => return Err(e),
        };
        if !events.is_empty() {
            last_heard = Instant::now();
        }
        for ev in events {
            match ev {
                ConnEvent::Msg(ControlMessage::HeartbeatAck { echo_micros, .. }) => {
                    st.last_rtt_micros = st.micros_now().saturating_sub(echo_micros).max(1);
                }
                ConnEvent::Msg(ControlMessage::ChunkAck { next_seq: acked, window }) => {
                    granted = window.max(1) as usize;
                    // Cumulative: everything below `acked` is merged and
                    // durable on the manager side; only now may the local
                    // copies go.
                    let mut progressed = false;
                    while st.window.front().is_some_and(|f| f.seq < acked) {
                        let retired = st.window.pop_front().expect("front checked");
                        st.chunk_rtt.record((retired.sent_at.elapsed().as_micros() as u64).max(1));
                        progressed = true;
                    }
                    if acked > frontier {
                        frontier = acked;
                        progressed = true;
                    }
                    if progressed {
                        if let Some(spool) = &mut st.spool {
                            if acked > 0 {
                                let _ = spool.trim_acked(acked - 1);
                            }
                        }
                        resend.reset();
                        resend_at = None;
                    }
                }
                ConnEvent::Msg(ControlMessage::ChunkRetry { seq: want }) => {
                    // Go-back-N: re-send every in-flight frame from the
                    // daemon's resume point.  Bursts can repeat the same
                    // request while the resend is in flight; answer it once.
                    let now = Instant::now();
                    let dup = last_goback.is_some_and(|(w, at)| {
                        w == want && now.duration_since(at) < GOBACK_SUPPRESS
                    });
                    if !dup {
                        last_goback = Some((want, now));
                        for f in st.window.iter().filter(|f| f.seq >= want) {
                            conn.send_raw(&f.frame).map_err(ConnError::Io)?;
                        }
                        resend_at = None;
                    }
                }
                ConnEvent::Msg(ControlMessage::Shutdown) => shutting_down = true,
                _ => {}
            }
        }

        forward_status(st, &mut conn)?;

        let now = Instant::now();

        if !shutting_down && now.duration_since(last_heard) > dead_after {
            // Half-open: nothing heard for several heartbeat periods while
            // our own sends kept "succeeding" into the void.  Tear down and
            // reconnect through the shared budgeted backoff.
            return Ok(SessionEnd::ConnLost);
        }

        if resend_at.is_some_and(|t| now >= t) {
            for f in &st.window {
                conn.send_raw(&f.frame).map_err(ConnError::Io)?;
            }
            let delay = resend.next_delay().expect("resend schedule is unbounded");
            resend_at = Some(now + delay);
        }

        // Replayed spool records go out before anything fresh is cut.
        fill_window_from_backlog(&mut conn, st, granted)?;

        if st.backlog.is_empty()
            && st.window.len() < granted
            && (shutting_down || now >= collect_due)
        {
            collect_due = now + Duration::from_millis(cfg.collect_ms.max(1));
            // A log without records or lists is left alone: table entries
            // interned meanwhile wait for the chunk that has data to carry
            // them, instead of being cut into a chunk nobody uploads.
            if let Some(chunk) = st.host.as_ref().unwrap().collect_pending_log() {
                let seq = st.next_send(frontier);
                if let Some(end) = upload_chunk(&mut conn, st, seq, chunk)? {
                    if matches!(end, SessionEnd::Killed) {
                        // The scripted crash still owes the daemon the
                        // frame written just above; see `crash_close`.
                        conn.crash_close();
                    }
                    return Ok(end);
                }
            } else if shutting_down && st.window.is_empty() {
                conn.send(&ControlMessage::Goodbye { agent: st.agent, final_seq: frontier })
                    .map_err(ConnError::Io)?;
                return Ok(SessionEnd::Shutdown);
            }
        }

        if !shutting_down && now >= hb_due {
            hb_due = now + Duration::from_millis(cfg.heartbeat_ms.max(1));
            st.hb_seq += 1;
            let flags = if st.spool_degraded { heartbeat_flags::SPOOL_DEGRADED } else { 0 };
            conn.send(&ControlMessage::Heartbeat {
                agent: st.agent,
                seq: st.hb_seq,
                sent_micros: st.micros_now(),
                rtt_micros: st.last_rtt_micros,
                flags,
            })
            .map_err(ConnError::Io)?;
        }
    }
}

/// Journals and sends one fresh chunk into the window, applying scripted
/// upload faults.  Returns a session end when a fault terminates the
/// session.
fn upload_chunk(
    conn: &mut ControlConn,
    st: &mut AgentState,
    seq: u64,
    chunk: honeypot::LogChunk,
) -> Result<Option<SessionEnd>, ConnError> {
    // The journal copy is taken before any fault can touch the bytes: it
    // is the ground truth of what this agent tried to report.
    st.journal.record(st.agent, seq, chunk.clone());
    // One encoding serves both the spool record and the wire frame.
    let payload = ControlMessage::LogUpload { agent: st.agent, seq, chunk }.encode_payload();
    if let Some(spool) = &mut st.spool {
        // Durable before the first send: ack-or-replay from here on.  A
        // failing disk gets a short budgeted retry (transient ENOSPC
        // clears when logs rotate), then the agent *degrades* instead of
        // crashing: the chunk stays in the in-memory window, heartbeats
        // carry the degraded flag, and the next successful append clears
        // it.  Degraded-mode chunks lose crash durability, nothing else.
        let mut disk_retry =
            Backoff::new(RetryPolicy::disk(), RETRY_SEED ^ u64::from(st.agent) ^ 0xD15C, seq);
        loop {
            match spool.append(seq, &payload) {
                Ok(()) => {
                    st.spool_degraded = false;
                    break;
                }
                Err(e) => match disk_retry.next_delay() {
                    Some(delay) => std::thread::sleep(delay),
                    None => {
                        if !st.spool_degraded {
                            obs_event!(
                                obs::Level::Warn,
                                "agent",
                                "spool_degraded",
                                agent = st.agent,
                                seq = seq,
                                error = obs::InlineStr::new(&e.to_string())
                            );
                        }
                        st.spool_degraded = true;
                        break;
                    }
                },
            }
        }
    }
    if st.fault.kill_before_chunk == Some(seq) {
        // Crash after journal+spool, before the send: the daemon never saw
        // this chunk.  Only the spool can save it now.
        return Ok(Some(SessionEnd::Killed));
    }
    let frame = encode_control_frame(opcodes::LOG_CHUNK, &payload);
    let kill_now = st.fault.kill_after_chunk == Some(seq);

    if st.fault.should_truncate(seq, &mut st.fstate) {
        // Half a frame, then the connection dies: the daemon's decoder
        // never completes the frame and the next session must resume.
        let _ = conn.send_raw(&frame[..frame.len() / 2]);
        st.window.push_back(InFlight { seq, frame, sent_at: Instant::now() });
        return Ok(Some(SessionEnd::ConnLost));
    }
    if st.fault.should_corrupt(seq, &mut st.fstate) {
        let mut doctored = frame.clone();
        let last = doctored.len() - 1;
        doctored[last] ^= 0xA5; // break the CRC trailer
        conn.send_raw(&doctored).map_err(ConnError::Io)?;
        st.window.push_back(InFlight { seq, frame, sent_at: Instant::now() });
        return Ok(None); // wait for the daemon's ChunkRetry
    }

    conn.send_raw(&frame).map_err(ConnError::Io)?;
    st.window.push_back(InFlight { seq, frame, sent_at: Instant::now() });
    if kill_now {
        // Crash right after the send: the daemon merges the chunk, but the
        // ack is never read.  The next incarnation must resume past it.
        return Ok(Some(SessionEnd::Killed));
    }
    Ok(None)
}

/// Promotes spooled backlog records into the window until it is full.
/// Backlog chunks were journaled and spooled by an earlier incarnation;
/// they go back out verbatim, pipelined, in seq order.
fn fill_window_from_backlog(
    conn: &mut ControlConn,
    st: &mut AgentState,
    granted: usize,
) -> Result<(), ConnError> {
    while st.window.len() < granted {
        let Some(rec) = st.backlog.pop_front() else { return Ok(()) };
        let frame = encode_control_frame(opcodes::LOG_CHUNK, &rec.payload);
        conn.send_raw(&frame).map_err(ConnError::Io)?;
        st.window.push_back(InFlight { seq: rec.seq, frame, sent_at: Instant::now() });
    }
    Ok(())
}

fn forward_status(st: &mut AgentState, conn: &mut ControlConn) -> Result<(), ConnError> {
    let Some(host) = &st.host else { return Ok(()) };
    let reports = host.status_reports();
    while st.forwarded_status < reports.len() {
        let report = reports[st.forwarded_status];
        conn.send(&ControlMessage::Status(report)).map_err(ConnError::Io)?;
        st.forwarded_status += 1;
    }
    Ok(())
}

/// Starts the honeypot and waits for its server login to complete;
/// `None` when the server cannot be reached or never answers.
fn start_host(cfg: &AgentConfig, incarnation: u32) -> Option<HoneypotHost> {
    let server_addr = SocketAddr::from((cfg.server.ip.octets(), cfg.server.port));
    let hp_config = HoneypotConfig {
        id: cfg.id,
        content: cfg.content,
        files: cfg.files.clone(),
        ask_shared_files: true,
        materialize_content: true,
        port: 4662,
        client_name: cfg.client_name.clone(),
    };
    // Each incarnation draws a distinct RNG stream: a relaunched honeypot
    // is a new process, not a replay of the old one.
    let rng = Rng::seed_from(stream_seed(cfg.rng_seed, incarnation as u64));
    let honeypot =
        Honeypot::new(hp_config, cfg.server.clone(), IpHasher::from_seed(cfg.ip_salt), rng);
    let host = HoneypotHost::start(honeypot, server_addr).ok()?;
    // Until the server's ID-CHANGE arrives the honeypot ignores every peer
    // message, so `Ready` may only follow a completed login.
    if host.wait_connected(HANDSHAKE_TIMEOUT) {
        Some(host)
    } else {
        let _ = host.stop();
        None
    }
}
