//! The manager daemon (paper §III-A, as a live network service).
//!
//! One TCP listener; agents connect and register.  Four concerns run in
//! the daemon:
//!
//! * **transport** — a pool of reactor shards (`crate::reactor`) drives
//!   every connection non-blockingly from a handful of threads: the accept
//!   loop (bounded by the `MAX_CONNECTIONS` cap, resilient to FD
//!   exhaustion) deals fresh sockets round-robin to the shards, and each
//!   shard reads, decodes and flushes its connections in one event loop —
//!   registration, heartbeats and chunk ingest multiplexed across
//!   thousands of agents;
//! * **collection** — decoded [`LogChunk`](honeypot::LogChunk) uploads are
//!   queued to a single merge thread that feeds the in-process
//!   [`honeypot::Manager`] merge/anonymise pipeline via `collect_sequenced`
//!   (exactly-once; duplicates re-acked, corrupt frames re-requested with
//!   `ChunkRetry`, never merged).  Uploads are windowed and pipelined:
//!   agents keep up to [`DaemonConfig::upload_window`] chunks in flight
//!   and the merge thread answers with *cumulative* acks — one
//!   `ChunkAck { next_seq }` per burst carries the whole merge frontier,
//!   and the agent trims its spool up to it;
//! * **supervision** — a tick thread watches heartbeat deadlines, marks
//!   silent agents dead in the core's [`honeypot::SupervisionBook`], and
//!   issues (re)launches through a caller-provided launcher, gated by
//!   exponential backoff with jitter and accounted through the book's pure
//!   `needing_relaunch` + `mark_relaunched` pair.  The book and the merge
//!   sit behind two locks, so supervision never waits on a merge;
//! * **metrics** — heartbeat RTTs, relaunch/death counts, chunk bytes and
//!   retries, window occupancy, reactor loop latency and merge-queue
//!   depth ([`crate::metrics::PlatformMetrics`]): the one record of every
//!   daemon-side sample, and the document the [`DaemonConfig::obs`]
//!   scraper serves.
//!
//! With [`DaemonConfig::checkpoint`] set, the daemon is additionally
//! **crash-safe**: every merged chunk is appended to a write-ahead spool
//! *before* the cumulative ack covering it is sent (acked ⇒ durable), and
//! the supervision state is snapshotted atomically on a timer.  A fresh
//! daemon started with the same checkpoint directory replays the WAL
//! through a new core manager — reproducing the merged log bit for bit,
//! in the original merge order — and resumes supervising from the
//! snapshot.  Chunks an agent re-sends across the crash boundary are
//! deduplicated by the WAL-derived resume sequences and counted in
//! `duplicate_chunks`, never merged twice.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use edonkey_proto::control::{opcodes, ControlEvent};
use honeypot::spool::{DiskFaults, Spool, LOCK_WAIT};
use honeypot::{
    HoneypotId, HoneypotSpec, HoneypotStatus, Manager, MeasurementLog, StatusReport,
    SupervisionBook,
};
use netsim::sync::lock;
use netsim::SimTime;

use edonkey_proto::control::MAX_CONTROL_PAYLOAD;

use crate::checkpoint::{
    load_checkpoint, quarantine_checkpoint, save_checkpoint, CheckpointOptions, ManagerCheckpoint,
    SlotCheckpoint,
};
use crate::messages::{heartbeat_flags, AgentConfig, ControlMessage};
use crate::metrics::PlatformMetrics;
use crate::obs::{self, Histogram};
use crate::reactor::{wait_io, CloseReason, Outbox, ReactorConn, Session, Waker};
use crate::retry::{Backoff, RetryPolicy};
use crate::transport::{classify_accept, AcceptError};
use netsim::obs_event;
/// Reactor latency samples are batched locally and folded into the shared
/// metrics every this many active iterations (keeps the lock cold).
const LATENCY_FLUSH_EVERY: u64 = 128;

/// Ceiling on how long a non-empty latency batch may wait before it is
/// folded into the shared metrics: low-traffic deployments would
/// otherwise never reach the pass-count threshold and the scraper would
/// report a permanently cold reactor histogram.
const LATENCY_FLUSH_INTERVAL: Duration = Duration::from_millis(250);
/// Merge bursts are capped so ack latency stays bounded under firehose.
const MERGE_BURST: usize = 1024;
/// First relaunch backoff; doubles per consecutive attempt.
const BACKOFF_BASE_MS: u64 = 50;
/// Relaunch backoff ceiling.
const BACKOFF_CAP_MS: u64 = 2_000;
/// Seed of the relaunch and accept backoff jitter streams.
const BACKOFF_SEED: u64 = 0x1eaf_5eed;
/// Stop relaunching an agent after this many consecutive failed launch
/// attempts (a registration that reaches `Connected` resets the count).
const MAX_LAUNCH_ATTEMPTS: u32 = 10;
/// Hard cap on concurrent control connections; everything past it is
/// dropped at accept (counted in `connections_rejected`) so FD exhaustion
/// degrades into rejections instead of a hot error loop.
const MAX_CONNECTIONS: usize = 4096;

/// Supervision and transport tuning.
#[derive(Clone, Debug)]
pub struct DaemonConfig {
    /// An agent silent for longer than this is declared dead.
    pub heartbeat_timeout_ms: u64,
    /// Supervision loop period.
    pub supervision_tick_ms: u64,
    /// Durability: checkpoint directory and snapshot cadence.  `None`
    /// keeps the PR 3 in-memory behaviour (a daemon crash loses the run).
    pub checkpoint: Option<CheckpointOptions>,
    /// Upload window granted to every agent at registration: how many
    /// chunks it may keep in flight beyond the cumulative-ack frontier.
    pub upload_window: u32,
    /// Registration must complete this long after the TCP accept, or the
    /// connection is dropped (a resource an unauthenticated peer may not
    /// hold open).
    pub handshake_timeout_ms: u64,
    /// A *registered* connection with no inbound bytes for this long is
    /// reaped.  Heartbeats keep a live agent far inside the limit; a
    /// half-open socket or a connect-and-stall peer does not get to pin a
    /// slot's outbox forever.  0 disables.
    pub idle_timeout_ms: u64,
    /// A connection holding a partial frame (bytes buffered, no complete
    /// frame) for this long is a slow-loris and is reaped.  0 disables.
    pub slow_loris_timeout_ms: u64,
    /// Merge-queue overload protection.  As the queue approaches this
    /// depth the window granted in every `ChunkAck` shrinks linearly (to 1
    /// at the limit) and chunks arriving *at* the limit are shed unacked —
    /// backpressure rides the existing ack path and the agents' resend
    /// timers, no new message.  0 disables.
    pub merge_queue_limit: usize,
    /// Injectable write faults for the chunk WAL.
    pub wal_faults: Option<DiskFaults>,
    /// Injectable write faults for the supervision snapshot.
    pub checkpoint_faults: Option<DiskFaults>,
    /// Injectable merge stall, milliseconds per chunk: slows the merge
    /// thread so overload tests can fill the queue deterministically
    /// instead of racing the scheduler.  0 (the default) is a no-op.
    pub merge_stall_ms: u64,
    /// Observability scraper: when set, the daemon runs a
    /// [`crate::obs::Scraper`] over its own [`PlatformMetrics`] for its
    /// lifetime (JSONL time series + loopback snapshot endpoint, see
    /// [`Daemon::obs_addr`]).  `None` (the default) runs nothing.
    pub obs: Option<obs::ObsConfig>,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            heartbeat_timeout_ms: 400,
            supervision_tick_ms: 25,
            checkpoint: None,
            upload_window: 32,
            handshake_timeout_ms: 3_000,
            idle_timeout_ms: 30_000,
            slow_loris_timeout_ms: 5_000,
            merge_queue_limit: 4_096,
            wal_faults: None,
            checkpoint_faults: None,
            merge_stall_ms: 0,
            obs: None,
        }
    }
}

/// Reactor shard threads, derived from the machine and capped small: the
/// shards are I/O loops, not compute.
fn reactor_shards() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get()).clamp(1, 4)
}

/// Spawns (or re-spawns) an agent: `(agent_id, incarnation, daemon_addr)`.
pub type Launcher = Box<dyn Fn(u32, u32, SocketAddr) + Send + Sync + 'static>;

struct Slot {
    config: AgentConfig,
    /// Next upload sequence number this agent must send — the cumulative
    /// ack frontier (everything below it is merged).
    expected_seq: u64,
    /// Highest upload sequence handed to the merge queue (window gauge).
    highest_enqueued: Option<u64>,
    /// Incarnation the next launch will carry.
    next_incarnation: u32,
    /// A connection for this agent is currently registered.
    registered: bool,
    /// The agent said a clean goodbye; never relaunch it.
    goodbye: bool,
    /// When the launch in flight was issued: a launch no registration
    /// has followed yet.
    launched_at: Option<Instant>,
    last_activity: Option<Instant>,
    registered_at: Option<Instant>,
    /// Backoff gate: no launch before this instant.
    next_launch_at: Option<Instant>,
    /// Launch-attempt schedule: counts consecutive attempts without a
    /// `Connected` status and paces relaunch gates (unified policy).
    backoff: Backoff,
    /// Port of the honeypot's peer listener (from `Ready`).
    peer_port: Option<u16>,
    /// Outbound queue of the agent's registered connection; the owning
    /// reactor shard flushes it.
    outbox: Option<Arc<Outbox>>,
}

impl Slot {
    fn new(config: AgentConfig, policy: RetryPolicy, seed: u64, stream: u64) -> Self {
        Slot {
            config,
            expected_seq: 0,
            highest_enqueued: None,
            next_incarnation: 0,
            registered: false,
            goodbye: false,
            launched_at: None,
            last_activity: None,
            registered_at: None,
            next_launch_at: None,
            backoff: Backoff::new(policy, seed, stream),
            peer_port: None,
            outbox: None,
        }
    }
}

/// The chunk write-ahead log: one global append stream in merge order.
struct Wal {
    spool: Spool,
    next_seq: u64,
}

/// Durable-mode state (present iff `DaemonConfig::checkpoint` is set).
struct Durable {
    opts: CheckpointOptions,
    wal: Mutex<Wal>,
    last_snapshot: Mutex<Instant>,
}

/// One upload-path work item, queued from a reactor shard to the merge
/// thread.  The queue preserves per-connection arrival order, which is
/// what makes hole detection and the corrupt-frame resume point exact.
// Chunks dominate the queue by design; boxing them would add an
// allocation per upload to shrink the rare corrupt-frame variant.
#[allow(clippy::large_enum_variant)]
enum MergeMsg {
    Chunk {
        agent: usize,
        seq: u64,
        chunk: honeypot::LogChunk,
        /// The received payload bytes, written to the WAL verbatim.
        payload: Vec<u8>,
        outbox: Arc<Outbox>,
        /// When the reactor enqueued it — merge-queue dwell is measured
        /// from here to the merge thread picking the chunk up.
        queued_at: Instant,
    },
    /// A LOG_CHUNK frame that failed its CRC; the retry must carry the
    /// merge frontier *after* everything queued ahead of it.
    CorruptChunk { agent: usize, outbox: Arc<Outbox> },
}

/// The accept thread's hand-off to one reactor shard.
struct ShardInbox {
    /// Freshly accepted sockets the shard has not adopted yet.
    injector: Mutex<Vec<TcpStream>>,
    waker: Arc<Waker>,
}

struct Inner {
    cfg: DaemonConfig,
    addr: SocketAddr,
    started: Instant,
    /// The core manager's supervision book: status reports and relaunch
    /// accounting.  Locked apart from `merge`, so a merge never blocks
    /// the reactors' status handling or the supervision tick.
    book: Mutex<SupervisionBook>,
    /// The core manager's merge; `None` once `finish` has consumed it.
    merge: Mutex<Option<Manager>>,
    slots: Mutex<Vec<Slot>>,
    /// Paired with `slots`: notified on every change a waiter reads —
    /// registration, `Ready`, a connection closing (goodbye included), a
    /// death, a counted relaunch, a merge burst that moved the frontier.
    slots_changed: Condvar,
    shards: Vec<ShardInbox>,
    metrics: Mutex<PlatformMetrics>,
    /// `(agent, seq)` in the exact order chunks were merged.
    chunk_order: Mutex<Vec<(u32, u64)>>,
    launcher: Launcher,
    durable: Option<Durable>,
    /// Live control connections (accept-side admission gauge).
    active_conns: AtomicUsize,
    /// Chunks queued to the merge thread and not yet processed.
    merge_depth: AtomicUsize,
    shutdown: AtomicBool,
    /// Set by `finish` once the drain is over: the accept loop stops
    /// admitting, shards flush and exit.
    stop_reactors: AtomicBool,
    /// Simulated crash: every loop abandons its work immediately, nothing
    /// is flushed or finalized.  Only what [`Durable`] already wrote
    /// survives, exactly like a killed process.
    crashed: AtomicBool,
}

impl Inner {
    fn now_sim(&self) -> SimTime {
        SimTime::from_millis(self.started.elapsed().as_millis() as u64)
    }

    /// Wakes `slots_changed` waiters after a change made outside the
    /// `slots` lock.  Taking the lock first orders the notification after
    /// any waiter's predicate check, so the wake-up cannot be lost.
    fn notify_changed(&self) {
        drop(lock(&self.slots));
        self.slots_changed.notify_all();
    }

    /// Rouses every reactor shard (after `stop_reactors` or `crashed`).
    fn wake_shards(&self) {
        for shard in &self.shards {
            shard.waker.wake();
        }
    }
}

/// The manager daemon.  Create with [`Daemon::start`]; always call
/// [`Daemon::finish`] to obtain the merged measurement.
pub struct Daemon {
    inner: Arc<Inner>,
    accept: Option<JoinHandle<()>>,
    supervise: Option<JoinHandle<()>>,
    reactors: Vec<JoinHandle<()>>,
    merge: Option<JoinHandle<()>>,
    scraper: Option<obs::Scraper>,
}

impl Daemon {
    /// Binds a loopback control endpoint and starts the accept loop, the
    /// reactor shards, the merge thread and the supervision loop.
    /// `configs[i].id` must equal `i` (the core manager indexes honeypots
    /// densely).  The supervision loop performs the *initial* launches
    /// too, through the same backoff-gated path as relaunches.
    ///
    /// With `cfg.checkpoint` set and a non-empty checkpoint directory,
    /// this *recovers*: the WAL is replayed through the fresh core (same
    /// merge order, same intern order), per-agent resume sequences are
    /// derived from it, and the supervision snapshot — if present and
    /// intact — restores incarnation counters, attempt budgets, goodbye
    /// flags and metrics continuity.
    pub fn start(
        cfg: DaemonConfig,
        configs: Vec<AgentConfig>,
        launcher: Launcher,
    ) -> std::io::Result<Daemon> {
        let specs: Vec<HoneypotSpec> = configs
            .iter()
            .map(|c| HoneypotSpec { id: c.id, content: c.content, server: c.server.clone() })
            .collect();
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let n = configs.len();

        let policy = RetryPolicy::relaunch(BACKOFF_BASE_MS, BACKOFF_CAP_MS, MAX_LAUNCH_ATTEMPTS);
        let mut slots: Vec<Slot> = configs
            .into_iter()
            .enumerate()
            .map(|(i, c)| Slot::new(c, policy, BACKOFF_SEED, i as u64))
            .collect();
        let book = SupervisionBook::new(&specs);
        let mut merge = Manager::new(specs);
        let mut metrics = PlatformMetrics::new(n);
        let mut chunk_order: Vec<(u32, u64)> = Vec::new();

        let snapshot = cfg.checkpoint.as_ref().and_then(|o| load_checkpoint(&o.dir));
        let mut restored = false;
        let durable = match &cfg.checkpoint {
            Some(opts) => {
                let mut spool = Spool::open(opts.wal_dir())?;
                if let Some(faults) = &cfg.wal_faults {
                    spool.set_faults(faults.clone());
                }
                let next_seq = spool.last_seq().map_or(0, |s| s + 1);
                // Replay streams record by record: recovery holds one WAL
                // segment in memory, however much the WAL has made durable.
                spool.for_each_record(|wseq, payload| {
                    restored = true;
                    let Ok(ControlMessage::LogUpload { agent, seq, chunk }) =
                        ControlMessage::decode(opcodes::LOG_CHUNK, payload)
                    else {
                        // It passed its CRC, so these are the bytes that
                        // were acked: skipping them is a loss to report.
                        metrics.wal_undecodable_records += 1;
                        obs_event!(
                            obs::Level::Error,
                            "daemon",
                            "wal_record_undecodable",
                            wal_seq = wseq,
                            bytes = payload.len()
                        );
                        return;
                    };
                    let i = agent as usize;
                    if i >= slots.len() {
                        return;
                    }
                    if merge.collect_sequenced(seq, chunk) {
                        chunk_order.push((agent, seq));
                        metrics.agents[i].note_merged(seq);
                        metrics.agents[i].chunks_merged += 1;
                        metrics.agents[i].chunk_bytes += payload.len() as u64;
                    }
                    if seq >= slots[i].expected_seq {
                        slots[i].expected_seq = seq + 1;
                    }
                })?;
                Some(Durable {
                    opts: opts.clone(),
                    wal: Mutex::new(Wal { spool, next_seq }),
                    last_snapshot: Mutex::new(Instant::now()),
                })
            }
            None => None,
        };
        if let Some(snap) = &snapshot {
            restored = true;
            for (i, s) in snap.slots.iter().enumerate().take(slots.len()) {
                let slot = &mut slots[i];
                // The WAL-derived resume point is authoritative (acks
                // follow WAL appends, so the snapshot can only lag).
                slot.expected_seq = slot.expected_seq.max(s.expected_seq);
                slot.next_incarnation = slot.next_incarnation.max(s.next_incarnation);
                slot.goodbye = s.goodbye;
                slot.backoff.restore(s.attempts);
                let m = &mut metrics.agents[i];
                m.relaunches = s.relaunches;
                m.deaths = s.deaths;
                m.resumes = s.resumes;
                m.registrations = s.registrations;
                m.uptime_ms = s.uptime_ms;
            }
        }
        if restored {
            metrics.manager_restores += 1;
        }

        let shards = (0..reactor_shards())
            .map(|_| Ok(ShardInbox { injector: Mutex::new(Vec::new()), waker: Waker::new()? }))
            .collect::<std::io::Result<Vec<_>>>()?;
        let inner = Arc::new(Inner {
            addr,
            started: Instant::now(),
            book: Mutex::new(book),
            merge: Mutex::new(Some(merge)),
            slots: Mutex::new(slots),
            slots_changed: Condvar::new(),
            shards,
            metrics: Mutex::new(metrics),
            chunk_order: Mutex::new(chunk_order),
            launcher,
            durable,
            active_conns: AtomicUsize::new(0),
            merge_depth: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            stop_reactors: AtomicBool::new(false),
            crashed: AtomicBool::new(false),
            cfg,
        });

        let (merge_tx, merge_rx) = channel::<MergeMsg>();
        let merge_inner = inner.clone();
        let merge = std::thread::spawn(move || merge_loop(merge_inner, merge_rx));

        let reactors = (0..inner.shards.len())
            .map(|shard| {
                let shard_inner = inner.clone();
                let shard_tx = merge_tx.clone();
                std::thread::spawn(move || reactor_loop(shard_inner, shard, shard_tx))
            })
            .collect();
        // The merge channel must disconnect when the shards exit, so no
        // sender may outlive them.
        drop(merge_tx);

        let accept_inner = inner.clone();
        let accept = std::thread::spawn(move || {
            // Transient accept errors (EMFILE, ECONNABORTED) are retried
            // with the unified backoff; the listener is never torn down.
            let accept_policy = RetryPolicy { base_ms: 5, cap_ms: 250, max_attempts: None };
            let mut accept_backoff = Backoff::new(accept_policy, BACKOFF_SEED, 0xACCE);
            let mut next_shard = 0usize;
            for stream in listener.incoming() {
                // Admission outlives supervision: an agent launched just
                // before `finish` still registers during the drain and is
                // told to shut down.
                if accept_inner.stop_reactors.load(Ordering::SeqCst)
                    || accept_inner.crashed.load(Ordering::SeqCst)
                {
                    break;
                }
                let stream = match stream {
                    Ok(s) => {
                        accept_backoff.reset();
                        s
                    }
                    Err(e) => {
                        // A per-connection hiccup (reset before accept)
                        // costs nothing; a resource failure (EMFILE) is
                        // counted and backed off so the loop never runs
                        // hot against an exhausted process.
                        match classify_accept(&e) {
                            AcceptError::Transient => {}
                            AcceptError::Resource => {
                                lock(&accept_inner.metrics).accept_resource_errors += 1;
                                if let Some(pause) = accept_backoff.next_delay() {
                                    std::thread::sleep(pause);
                                }
                            }
                        }
                        continue;
                    }
                };
                // Bounded admission: at the cap the socket is dropped and
                // counted, a rejection the agent's reconnect backoff
                // absorbs — never a hot error loop.
                let active = accept_inner.active_conns.load(Ordering::SeqCst);
                if active >= MAX_CONNECTIONS {
                    let mut metrics = lock(&accept_inner.metrics);
                    metrics.connections_rejected += 1;
                    drop(metrics);
                    drop(stream);
                    std::thread::sleep(Duration::from_millis(1));
                    continue;
                }
                let now_active = accept_inner.active_conns.fetch_add(1, Ordering::SeqCst) + 1;
                {
                    let mut metrics = lock(&accept_inner.metrics);
                    metrics.connections_peak = metrics.connections_peak.max(now_active as u64);
                }
                let shard = &accept_inner.shards[next_shard];
                lock(&shard.injector).push(stream);
                shard.waker.wake();
                next_shard = (next_shard + 1) % accept_inner.shards.len();
            }
        });

        let sup_inner = inner.clone();
        let supervise = std::thread::spawn(move || {
            // The tick is the heartbeat-deadline resolution; `finish` and
            // `crash` unpark the thread so stopping never waits it out.
            let tick = Duration::from_millis(sup_inner.cfg.supervision_tick_ms);
            while !sup_inner.shutdown.load(Ordering::SeqCst)
                && !sup_inner.crashed.load(Ordering::SeqCst)
            {
                supervision_tick(&sup_inner);
                maybe_checkpoint(&sup_inner);
                std::thread::park_timeout(tick);
            }
        });

        // The scraper only *reads* this daemon's metrics; a failure to
        // start it degrades visibility, never the measurement.
        let scraper = inner.cfg.obs.clone().and_then(|obs_cfg| {
            let scraped = inner.clone();
            obs::Scraper::start(move || lock(&scraped.metrics).to_json(), obs_cfg).ok()
        });

        Ok(Daemon {
            inner,
            accept: Some(accept),
            supervise: Some(supervise),
            reactors,
            merge: Some(merge),
            scraper,
        })
    }

    /// The control endpoint agents connect to.
    pub fn addr(&self) -> SocketAddr {
        self.inner.addr
    }

    /// The loopback snapshot endpoint of the observability scraper, when
    /// [`DaemonConfig::obs`] enabled one: connect, read one JSON line,
    /// done.
    pub fn obs_addr(&self) -> Option<SocketAddr> {
        self.scraper.as_ref().and_then(|s| s.addr())
    }

    /// Relaunches issued by the core accounting (initial launches not
    /// counted).
    pub fn relaunch_count(&self) -> u64 {
        lock(&self.inner.book).relaunch_count()
    }

    /// Chunks merged so far.
    pub fn chunks_collected(&self) -> u64 {
        lock(&self.inner.merge).as_ref().map_or(0, |m| m.chunks_collected())
    }

    /// Highest merged upload sequence for an agent.
    pub fn collected_seq_high(&self, agent: u32) -> Option<u64> {
        lock(&self.inner.merge).as_ref().and_then(|m| m.collected_seq_high(HoneypotId(agent)))
    }

    /// The honeypot peer-listener address of a registered, ready agent.
    pub fn agent_peer_addr(&self, agent: u32) -> Option<SocketAddr> {
        let slots = lock(&self.inner.slots);
        let slot = slots.get(agent as usize)?;
        if !slot.registered {
            return None;
        }
        slot.peer_port.map(|p| SocketAddr::from(([127, 0, 0, 1], p)))
    }

    /// Waits until every agent is registered and ready (or the timeout
    /// passes); returns whether they all made it.
    pub fn wait_agents_ready(&self, timeout: Duration) -> bool {
        self.wait_slots(timeout, |slots| {
            slots.iter().all(|s| s.registered && s.peer_port.is_some())
        })
    }

    /// Waits until at least `chunks` chunks have been merged (or the
    /// timeout passes); returns whether they were.
    pub fn wait_chunks(&self, chunks: u64, timeout: Duration) -> bool {
        self.wait_slots(timeout, |_| self.chunks_collected() >= chunks)
    }

    /// Waits until the core has counted at least `relaunches` relaunches
    /// (or the timeout passes); returns whether it has.
    pub fn wait_relaunches(&self, relaunches: u64, timeout: Duration) -> bool {
        self.wait_slots(timeout, |_| self.relaunch_count() >= relaunches)
    }

    /// Blocks until `done` holds, re-checking it (under the `slots` lock)
    /// on every `slots_changed` notification, or until `timeout` passes.
    /// Returns `done`'s last verdict.
    fn wait_slots(&self, timeout: Duration, mut done: impl FnMut(&[Slot]) -> bool) -> bool {
        let slots = lock(&self.inner.slots);
        let (slots, _) = self
            .inner
            .slots_changed
            .wait_timeout_while(slots, timeout, |slots| !done(slots))
            .unwrap_or_else(PoisonError::into_inner);
        done(&slots)
    }

    /// Snapshot of the platform metrics.
    pub fn metrics(&self) -> PlatformMetrics {
        lock(&self.inner.metrics).clone()
    }

    /// The exact order in which `(agent, seq)` chunks were merged.
    pub fn chunk_order(&self) -> Vec<(u32, u64)> {
        lock(&self.inner.chunk_order).clone()
    }

    /// Simulates a manager crash: every loop abandons its work without
    /// flushing, draining or finalizing.  The in-memory merge state and
    /// metrics die here; only the checkpoint directory survives.  Start a
    /// fresh daemon with the same [`DaemonConfig::checkpoint`] to recover.
    pub fn crash(self) {
        self.inner.crashed.store(true, Ordering::SeqCst);
        // Drop wakes and joins the loops; shards and the merge thread
        // notice `crashed` and bail without bookkeeping.
    }

    /// Ends the measurement: stops supervision, asks every live agent to
    /// flush and exit, waits up to `drain` for goodbyes, then finalizes
    /// the merge pipeline.  Returns the merged log, the platform metrics
    /// and the chunk merge order.
    pub fn finish(
        mut self,
        duration: SimTime,
        shared_files_final: u32,
        name_threshold: u32,
        drain: Duration,
    ) -> (MeasurementLog, PlatformMetrics, Vec<(u32, u64)>) {
        // Supervision first: a draining agent must not be "relaunched".
        self.inner.shutdown.store(true, Ordering::SeqCst);
        if let Some(t) = self.supervise.take() {
            t.thread().unpark();
            let _ = t.join();
        }

        let outboxes: Vec<Arc<Outbox>> = {
            let slots = lock(&self.inner.slots);
            slots.iter().filter_map(|s| s.outbox.clone()).collect()
        };
        for o in &outboxes {
            o.push_msg(&ControlMessage::Shutdown);
        }

        // An agent launched just before the stop is waited for too: it
        // registers into a stopping daemon, which tells it to shut down.
        self.wait_slots(drain, |slots| {
            slots.iter().all(|s| s.goodbye || !(s.registered || s.launched_at.is_some()))
        });

        // Stop admitting (the self-connect unblocks the accept loop) and
        // stop the shards; the merge channel disconnects when the last
        // shard drops its sender, and the merge thread drains what is
        // queued before exiting — so after these joins every received
        // chunk has been merged.
        self.inner.stop_reactors.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.inner.addr);
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
        self.inner.wake_shards();
        for t in self.reactors.drain(..) {
            let _ = t.join();
        }
        if let Some(t) = self.merge.take() {
            let _ = t.join();
        }
        // Stop the scraper after the merge join so its final time-series
        // sample covers the fully drained run.
        if let Some(s) = self.scraper.take() {
            s.stop();
        }

        // Credit uptime of anything still registered (e.g. drain timeout).
        {
            let now = Instant::now();
            let mut slots = lock(&self.inner.slots);
            for i in 0..slots.len() {
                if slots[i].registered {
                    let slot = &mut slots[i];
                    slot.registered = false;
                    slot.outbox = None;
                    if let Some(since) = slot.registered_at.take() {
                        let ms = now.duration_since(since).as_millis() as u64;
                        lock(&self.inner.metrics).agents[i].uptime_ms += ms;
                    }
                }
            }
        }

        // A last snapshot so a *supervisor* restart after a clean finish
        // still sees the final accounting.
        if let Some(d) = &self.inner.durable {
            let faults = self.inner.cfg.checkpoint_faults.clone().unwrap_or_default();
            let _ = save_checkpoint(&d.opts.dir, &build_checkpoint(&self.inner), &faults);
        }

        let mgr = lock(&self.inner.merge).take().expect("finish called once");
        let log = mgr.finalize(duration, shared_files_final, name_threshold);
        let metrics = lock(&self.inner.metrics).clone();
        let order = lock(&self.inner.chunk_order).clone();
        (log, metrics, order)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        self.inner.stop_reactors.store(true, Ordering::SeqCst);
        self.inner.wake_shards();
        let _ = TcpStream::connect(self.inner.addr);
        if let Some(t) = self.supervise.take() {
            t.thread().unpark();
            let _ = t.join();
        }
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
        for t in self.reactors.drain(..) {
            let _ = t.join();
        }
        if let Some(t) = self.merge.take() {
            let _ = t.join();
        }
    }
}

// ---------------------------------------------------------------------------
// Reactor shards.

/// One shard's event loop: adopt freshly accepted sockets, read and
/// decode every connection, handle control traffic inline (registration,
/// heartbeats, status) or queue it to the merge thread (uploads), flush
/// outboxes, reap dead connections.
fn reactor_loop(inner: Arc<Inner>, shard: usize, merge_tx: Sender<MergeMsg>) {
    let ShardInbox { injector, waker } = &inner.shards[shard];
    let mut conns: Vec<ReactorConn> = Vec::new();
    let mut latency = Histogram::new();
    let mut last_flush = Instant::now();
    loop {
        if inner.crashed.load(Ordering::SeqCst) {
            // A crashed manager does no bookkeeping on the way out.
            return;
        }
        if inner.stop_reactors.load(Ordering::SeqCst) {
            // Last chance for queued shutdowns and acks to leave — bounded,
            // because a peer that stopped reading never drains.
            let drain_deadline = Instant::now() + Duration::from_millis(200);
            loop {
                let mut pending = 0;
                for conn in &mut conns {
                    conn.flush();
                    pending += conn.session.outbox.pending();
                }
                if pending == 0 || Instant::now() >= drain_deadline {
                    break;
                }
                wait_io(&conns, waker, false, Some(drain_deadline));
            }
            for conn in conns.drain(..) {
                close_conn(&inner, conn);
            }
            flush_latency(&inner, &mut latency);
            return;
        }
        let t0 = Instant::now();
        let mut activity = false;

        for stream in lock(injector).drain(..) {
            match ReactorConn::adopt(stream, MAX_CONTROL_PAYLOAD, waker) {
                Ok(conn) => {
                    conns.push(conn);
                    activity = true;
                }
                Err(_) => {
                    inner.active_conns.fetch_sub(1, Ordering::SeqCst);
                }
            }
        }

        for conn in conns.iter_mut() {
            if conn.session.close.is_some() {
                continue;
            }
            if conn.read_events(|session, frame| handle_frame(&inner, session, frame, &merge_tx)) {
                activity = true;
            }
            reap_hostile(&inner, conn);
            conn.flush();
        }

        let mut i = 0;
        while i < conns.len() {
            if conns[i].session.close.is_some() {
                let conn = conns.swap_remove(i);
                close_conn(&inner, conn);
                activity = true;
            } else {
                i += 1;
            }
        }

        if activity {
            let micros = (t0.elapsed().as_micros() as u64).max(1);
            latency.record(micros);
        } else {
            // An idle pass blocks until a socket or the waker is ready, or
            // the earliest deadline a pass acts on comes due.
            let flush_due = (latency.count() > 0).then(|| last_flush + LATENCY_FLUSH_INTERVAL);
            let deadline = conns
                .iter()
                .flat_map(|c| hostile_deadlines(&inner.cfg, c).map(|(_, d)| d))
                .chain([flush_due])
                .flatten()
                .min();
            wait_io(&conns, waker, true, deadline);
        }
        // Flush by count under load, by time when quiet, so the metrics
        // the scraper samples never sit on a stale batch for more than
        // one flush interval.
        if latency.count() >= LATENCY_FLUSH_EVERY
            || (latency.count() > 0 && last_flush.elapsed() >= LATENCY_FLUSH_INTERVAL)
        {
            flush_latency(&inner, &mut latency);
            last_flush = Instant::now();
        }
    }
}

/// Hostile-peer deadlines, checked every shard pass:
///
/// * unregistered past the handshake deadline — a peer may not hold a
///   socket it never authenticates;
/// * registered but silent past the idle limit — half-open or stalled;
/// * a partial frame older than the slow-loris budget — a peer trickling
///   one byte at a time never completes a frame, only pins memory.
fn reap_hostile(inner: &Inner, conn: &mut ReactorConn) {
    if conn.session.close.is_some() {
        return;
    }
    let now = Instant::now();
    let expired = hostile_deadlines(&inner.cfg, conn)
        .into_iter()
        .find(|(_, deadline)| deadline.is_some_and(|d| now > d));
    if let Some((reason, _)) = expired {
        conn.session.close = Some(reason);
    }
}

/// When each [`reap_hostile`] rule would close `conn`, in the order the
/// rules are checked; `None` where a rule does not apply.
fn hostile_deadlines(
    cfg: &DaemonConfig,
    conn: &ReactorConn,
) -> [(CloseReason, Option<Instant>); 3] {
    let after = |since: Instant, ms: u64| since + Duration::from_millis(ms);
    let registered = conn.session.agent.is_some();
    [
        (
            CloseReason::HandshakeTimeout,
            (!registered).then(|| after(conn.opened, cfg.handshake_timeout_ms)),
        ),
        (
            CloseReason::IdleTimeout,
            (registered && cfg.idle_timeout_ms > 0)
                .then(|| after(conn.last_read, cfg.idle_timeout_ms)),
        ),
        (
            CloseReason::SlowLoris,
            conn.partial_since
                .filter(|_| cfg.slow_loris_timeout_ms > 0)
                .map(|t| after(t, cfg.slow_loris_timeout_ms)),
        ),
    ]
}

/// Folds a shard's local latency batch into the shared metrics the
/// scraper samples — one lock round per [`LATENCY_FLUSH_EVERY`] active
/// passes.
fn flush_latency(inner: &Inner, batch: &mut Histogram) {
    if batch.count() == 0 {
        return;
    }
    lock(&inner.metrics).reactor_loop_hist.merge(batch);
    *batch = Histogram::new();
}

/// Handles one frame while it is lent out of the connection's decoder.
/// Uploads (and corrupt upload frames) go to the merge queue in arrival
/// order; everything else is answered inline through the outbox.
fn handle_frame(
    inner: &Inner,
    session: &mut Session,
    frame: ControlEvent<'_>,
    merge_tx: &Sender<MergeMsg>,
) {
    if let Some(i) = session.agent {
        touch(inner, i);
    }
    match frame {
        ControlEvent::Corrupt { opcode } => {
            if let (opcodes::LOG_CHUNK, Some(i)) = (opcode, session.agent) {
                inner.merge_depth.fetch_add(1, Ordering::SeqCst);
                let outbox = session.outbox.clone();
                let _ = merge_tx.send(MergeMsg::CorruptChunk { agent: i, outbox });
                return;
            }
            lock(&inner.metrics).corrupt_frames += 1;
        }
        ControlEvent::Frame { opcode: opcodes::LOG_CHUNK, payload } => {
            handle_chunk_frame(inner, session, payload, merge_tx);
        }
        ControlEvent::Frame { opcode, payload } => match ControlMessage::decode(opcode, payload) {
            Ok(msg) => handle_msg(inner, session, msg),
            Err(_) => session.close = Some(CloseReason::Protocol),
        },
    }
}

/// Decodes an upload frame once and queues it (with a copy of its raw
/// payload, for the WAL) to the merge thread.
fn handle_chunk_frame(
    inner: &Inner,
    session: &mut Session,
    payload: &[u8],
    merge_tx: &Sender<MergeMsg>,
) {
    let Ok(ControlMessage::LogUpload { agent, seq, chunk }) =
        ControlMessage::decode(opcodes::LOG_CHUNK, payload)
    else {
        session.close = Some(CloseReason::Protocol);
        return;
    };
    let i = agent as usize;
    if session.agent != Some(i) {
        return;
    }
    // Overload shed: at the merge-queue limit the chunk is dropped
    // *unqueued* and unacked — the agent's resend timer re-delivers it
    // once the shrunken window grants (riding every ack) have drained the
    // queue.  Nothing is lost; latency is traded for survival.
    let limit = inner.cfg.merge_queue_limit;
    if limit > 0 && inner.merge_depth.load(Ordering::SeqCst) >= limit {
        lock(&inner.metrics).chunks_shed += 1;
        return;
    }
    // Occupancy gauges, read against the merge frontier at arrival.
    let in_flight = {
        let mut slots = lock(&inner.slots);
        let slot = &mut slots[i];
        slot.highest_enqueued = Some(slot.highest_enqueued.map_or(seq, |h| h.max(seq)));
        (seq >= slot.expected_seq).then(|| seq + 1 - slot.expected_seq)
    };
    if let Some(in_flight) = in_flight {
        let mut metrics = lock(&inner.metrics);
        let m = &mut metrics.agents[i];
        m.window_peak = m.window_peak.max(in_flight);
    }
    let depth = inner.merge_depth.fetch_add(1, Ordering::SeqCst) + 1;
    {
        let mut metrics = lock(&inner.metrics);
        metrics.merge_queue_peak = metrics.merge_queue_peak.max(depth as u64);
    }
    let _ = merge_tx.send(MergeMsg::Chunk {
        agent: i,
        seq,
        chunk,
        payload: payload.to_vec(),
        outbox: session.outbox.clone(),
        queued_at: Instant::now(),
    });
}

/// Inline handling of everything that is not an upload.
fn handle_msg(inner: &Inner, session: &mut Session, msg: ControlMessage) {
    match msg {
        ControlMessage::Register { agent, incarnation: _, resume } => {
            register_conn(inner, session, agent, resume);
        }
        ControlMessage::Heartbeat { seq, sent_micros, rtt_micros, flags, .. } => {
            let Some(i) = session.agent else { return };
            {
                let mut metrics = lock(&inner.metrics);
                metrics.agents[i].heartbeats += 1;
                if rtt_micros > 0 {
                    metrics.agents[i].rtt.record(rtt_micros);
                }
                if flags & heartbeat_flags::SPOOL_DEGRADED != 0 {
                    // The agent is uploading from memory only; its disk
                    // stopped taking writes.  Surfaced here so an operator
                    // sees degradation while the measurement continues.
                    metrics.agents[i].degraded_heartbeats += 1;
                }
            }
            if flags & heartbeat_flags::SPOOL_DEGRADED != 0 {
                obs_event!(
                    obs::Level::Warn,
                    "daemon",
                    "spool_degraded_heartbeat",
                    agent = i,
                    seq = seq
                );
            }
            session
                .outbox
                .push_msg(&ControlMessage::HeartbeatAck { seq, echo_micros: sent_micros });
        }
        ControlMessage::Status(report) => {
            let Some(i) = session.agent else { return };
            if matches!(report.status, HoneypotStatus::Connected { .. }) {
                lock(&inner.slots)[i].backoff.reset();
            }
            lock(&inner.book).on_status(report);
        }
        ControlMessage::Ready { peer_port, .. } => {
            let Some(i) = session.agent else { return };
            lock(&inner.slots)[i].peer_port = Some(peer_port);
            inner.slots_changed.notify_all();
        }
        ControlMessage::Goodbye { .. } if session.agent.is_some() => {
            session.close = Some(CloseReason::Goodbye);
        }
        _ => {}
    }
}

/// Registration: adopt the connection for its agent (latest connection
/// wins), answer with the resume point and the granted upload window,
/// then push the full configuration.
fn register_conn(inner: &Inner, session: &mut Session, agent: u32, resume: bool) {
    let i = agent as usize;
    let now = Instant::now();
    let mut credit_ms = None;
    let (next_seq, config) = {
        let mut slots = lock(&inner.slots);
        let Some(slot) = slots.get_mut(i) else {
            session.close = Some(CloseReason::Gone);
            return;
        };
        // Latest connection wins; credit the previous registration.
        if slot.registered {
            if let Some(since) = slot.registered_at.take() {
                credit_ms = Some(now.duration_since(since).as_millis() as u64);
            }
        }
        slot.registered = true;
        slot.launched_at = None;
        slot.last_activity = Some(now);
        slot.registered_at = Some(now);
        slot.outbox = Some(session.outbox.clone());
        // Ready again only once this registration says so: a relaunched
        // honeypot listens on a new port.
        slot.peer_port = None;
        (slot.expected_seq, slot.config.clone())
    };
    inner.slots_changed.notify_all();
    {
        let mut metrics = lock(&inner.metrics);
        if let Some(ms) = credit_ms {
            metrics.agents[i].uptime_ms += ms;
        }
        metrics.agents[i].registrations += 1;
        if resume {
            metrics.agents[i].resumes += 1;
        }
    }
    session.agent = Some(i);
    obs_event!(
        obs::Level::Info,
        "daemon",
        "agent_registered",
        agent = agent,
        resume = resume,
        next_seq = next_seq
    );
    session.outbox.push_msg(&ControlMessage::RegisterAck {
        agent,
        next_seq,
        window: effective_window(inner),
    });
    session.outbox.push_msg(&ControlMessage::ConfigPush(config));
    // Registered after `finish` collected the outboxes it tells to stop.
    if inner.shutdown.load(Ordering::SeqCst) {
        session.outbox.push_msg(&ControlMessage::Shutdown);
    }
}

/// The upload window to grant right now: the configured window, shrunk
/// linearly as the merge queue fills (down to 1 at the limit).  Granted at
/// registration and re-stated in every `ChunkAck`, so overload feedback
/// reaches agents at ack cadence without any new protocol surface.
fn effective_window(inner: &Inner) -> u32 {
    let full = inner.cfg.upload_window.max(1);
    let limit = inner.cfg.merge_queue_limit;
    if limit == 0 {
        return full;
    }
    let depth = inner.merge_depth.load(Ordering::SeqCst).min(limit);
    let scaled = ((u64::from(full) * (limit - depth) as u64) / limit as u64).max(1) as u32;
    if scaled < full {
        lock(&inner.metrics).window_shrinks += 1;
    }
    scaled
}

/// Connection teardown bookkeeping: close out the registration if the
/// connection still owns it, credit uptime, latch a clean goodbye.
fn close_conn(inner: &Inner, conn: ReactorConn) {
    let session = conn.session;
    inner.active_conns.fetch_sub(1, Ordering::SeqCst);
    match session.close {
        Some(CloseReason::HandshakeTimeout) => lock(&inner.metrics).handshake_timeouts += 1,
        Some(CloseReason::IdleTimeout) => lock(&inner.metrics).idle_reaped += 1,
        Some(CloseReason::SlowLoris) => lock(&inner.metrics).slow_loris_reaped += 1,
        Some(CloseReason::Protocol) => lock(&inner.metrics).protocol_violations += 1,
        _ => {}
    }
    let Some(i) = session.agent else { return };
    let clean_goodbye = session.close == Some(CloseReason::Goodbye);
    let now = Instant::now();
    let mut credit_ms = None;
    {
        let mut slots = lock(&inner.slots);
        let slot = &mut slots[i];
        let ours = slot.outbox.as_ref().is_some_and(|o| Arc::ptr_eq(o, &session.outbox));
        if ours {
            if clean_goodbye {
                slot.goodbye = true;
            }
            slot.registered = false;
            slot.outbox = None;
            if let Some(since) = slot.registered_at.take() {
                credit_ms = Some(now.duration_since(since).as_millis() as u64);
            }
        }
    }
    inner.slots_changed.notify_all();
    if let Some(ms) = credit_ms {
        lock(&inner.metrics).agents[i].uptime_ms += ms;
    }
}

fn touch(inner: &Inner, agent_idx: usize) {
    lock(&inner.slots)[agent_idx].last_activity = Some(Instant::now());
}

// ---------------------------------------------------------------------------
// Merge thread.

/// The single merge loop: drains upload work in bursts, preserves the
/// WAL-append-before-ack contract per chunk, and answers each connection
/// with one *cumulative* `ChunkAck` per burst (the merge frontier), plus
/// at most one `ChunkRetry` when the stream is damaged or has a hole.
fn merge_loop(inner: Arc<Inner>, rx: Receiver<MergeMsg>) {
    let mut batch: Vec<MergeMsg> = Vec::new();
    loop {
        if inner.crashed.load(Ordering::SeqCst) {
            return;
        }
        // Blocks while idle: a crash is noticed per chunk in
        // `merge_burst`, and the channel disconnects once the shards exit.
        match rx.recv() {
            Ok(msg) => batch.push(msg),
            Err(_) => return,
        }
        while batch.len() < MERGE_BURST {
            match rx.try_recv() {
                Ok(msg) => batch.push(msg),
                Err(_) => break,
            }
        }
        merge_burst(&inner, &mut batch);
    }
}

/// Per-burst ack/retry coalescing state, keyed by outbox identity.
struct BurstReplies {
    /// Connections owed a cumulative ack, with their agent index.
    acks: Vec<(Arc<Outbox>, usize)>,
    /// Connections owed a go-back-N retry, with the smallest resume point.
    retries: Vec<(Arc<Outbox>, u64)>,
}

impl BurstReplies {
    fn note_ack(&mut self, outbox: &Arc<Outbox>, agent: usize) {
        if !self.acks.iter().any(|(o, _)| Arc::ptr_eq(o, outbox)) {
            self.acks.push((outbox.clone(), agent));
        }
    }

    fn note_retry(&mut self, outbox: &Arc<Outbox>, want: u64) {
        for (o, w) in &mut self.retries {
            if Arc::ptr_eq(o, outbox) {
                *w = (*w).min(want);
                return;
            }
        }
        self.retries.push((outbox.clone(), want));
    }
}

fn merge_burst(inner: &Inner, batch: &mut Vec<MergeMsg>) {
    let mut replies = BurstReplies { acks: Vec::new(), retries: Vec::new() };
    let mut merged_any = false;
    // Dwell samples are batched locally and folded in once per burst so
    // the firehose path pays one metrics-lock round, not one per chunk.
    let mut dwell_batch = Histogram::new();
    for msg in batch.drain(..) {
        if inner.crashed.load(Ordering::SeqCst) {
            return;
        }
        match msg {
            MergeMsg::Chunk { agent, seq, chunk, payload, outbox, queued_at } => {
                if inner.cfg.merge_stall_ms > 0 {
                    std::thread::sleep(Duration::from_millis(inner.cfg.merge_stall_ms));
                }
                dwell_batch.record(queued_at.elapsed().as_micros() as u64);
                inner.merge_depth.fetch_sub(1, Ordering::SeqCst);
                let expected = lock(&inner.slots)[agent].expected_seq;
                if seq < expected {
                    // Duplicate after a lost ack, a go-back-N resend or a
                    // manager crash: already merged (and, in durable mode,
                    // already in the WAL) — the cumulative ack re-covers it.
                    lock(&inner.metrics).agents[agent].duplicate_chunks += 1;
                    replies.note_ack(&outbox, agent);
                    continue;
                }
                if seq > expected {
                    // A hole would mean lost data; ask for the resume point.
                    replies.note_retry(&outbox, expected);
                    continue;
                }
                let bytes = payload.len() as u64;
                // Durability contract: the chunk is in the WAL *before* the
                // cumulative ack covering it goes out, in merge order, so an
                // acked chunk is always recoverable and a replayed WAL
                // reproduces the merge exactly.
                if let Some(d) = &inner.durable {
                    let mut wal = lock(&d.wal);
                    let wseq = wal.next_seq;
                    match obs::registry::spool_append(&mut wal.spool, wseq, &payload) {
                        Ok(()) => wal.next_seq += 1,
                        Err(e) => {
                            // Degraded disk: the chunk is neither merged
                            // nor acked — the frontier stays put and the
                            // agent re-sends, so `acked ⇒ durable` holds
                            // even while the WAL is refusing writes.
                            drop(wal);
                            lock(&inner.metrics).wal_append_failures += 1;
                            obs_event!(
                                obs::Level::Error,
                                "daemon",
                                "wal_append_failed",
                                agent = agent,
                                seq = seq,
                                error = obs::InlineStr::new(&e.to_string())
                            );
                            continue;
                        }
                    }
                }
                let merged = match lock(&inner.merge).as_mut() {
                    Some(merge) => merge.collect_sequenced(seq, chunk),
                    None => false,
                };
                if merged {
                    merged_any = true;
                    lock(&inner.chunk_order).push((agent as u32, seq));
                    let mut metrics = lock(&inner.metrics);
                    // `note_merged` is the exactly-once ledger; `chunks_merged`
                    // must track it one-for-one or `double_merge_violation`
                    // fires.
                    metrics.agents[agent].note_merged(seq);
                    metrics.agents[agent].chunks_merged += 1;
                    metrics.agents[agent].chunk_bytes += bytes;
                }
                lock(&inner.slots)[agent].expected_seq = seq + 1;
                replies.note_ack(&outbox, agent);
            }
            MergeMsg::CorruptChunk { agent, outbox } => {
                inner.merge_depth.fetch_sub(1, Ordering::SeqCst);
                // A damaged upload is re-requested, never merged.  The
                // resume point is exact because this entry was queued
                // behind every chunk received ahead of the bad frame.
                let want = lock(&inner.slots)[agent].expected_seq;
                {
                    let mut metrics = lock(&inner.metrics);
                    metrics.corrupt_frames += 1;
                    metrics.agents[agent].chunk_retries += 1;
                }
                replies.note_retry(&outbox, want);
            }
        }
    }
    if dwell_batch.count() > 0 {
        lock(&inner.metrics).merge_dwell_micros.merge(&dwell_batch);
    }
    if merged_any {
        inner.notify_changed();
    }
    // One cumulative ack per connection per burst: the frontier at the
    // end of the burst covers every chunk merged (or deduplicated) in it.
    for (outbox, agent) in replies.acks {
        let (frontier, lag) = {
            let slots = lock(&inner.slots);
            let slot = &slots[agent];
            let lag =
                slot.highest_enqueued.map_or(0, |h| (h + 1).saturating_sub(slot.expected_seq));
            (slot.expected_seq, lag)
        };
        {
            let mut metrics = lock(&inner.metrics);
            let m = &mut metrics.agents[agent];
            m.frontier_lag_peak = m.frontier_lag_peak.max(lag);
            metrics.frontier_lag_chunks.record(lag);
        }
        outbox.push_msg(&ControlMessage::ChunkAck {
            next_seq: frontier,
            window: effective_window(inner),
        });
    }
    for (outbox, want) in replies.retries {
        outbox.push_msg(&ControlMessage::ChunkRetry { seq: want });
    }
}

// ---------------------------------------------------------------------------
// Supervision and checkpointing.

/// Builds the supervision snapshot from the live slot and metric state.
fn build_checkpoint(inner: &Inner) -> ManagerCheckpoint {
    let slot_view: Vec<(u64, u32, u32, bool)> = {
        let slots = lock(&inner.slots);
        slots
            .iter()
            .map(|s| (s.expected_seq, s.next_incarnation, s.backoff.attempts(), s.goodbye))
            .collect()
    };
    let metrics = lock(&inner.metrics);
    ManagerCheckpoint {
        slots: slot_view
            .into_iter()
            .zip(metrics.agents.iter())
            .map(|((expected_seq, next_incarnation, attempts, goodbye), m)| SlotCheckpoint {
                expected_seq,
                next_incarnation,
                attempts,
                goodbye,
                relaunches: m.relaunches,
                deaths: m.deaths,
                resumes: m.resumes,
                registrations: m.registrations,
                uptime_ms: m.uptime_ms,
            })
            .collect(),
    }
}

/// Writes a snapshot if the checkpoint interval has elapsed.
fn maybe_checkpoint(inner: &Inner) {
    let Some(d) = &inner.durable else { return };
    let now = Instant::now();
    {
        let mut last = lock(&d.last_snapshot);
        if now.duration_since(*last) < Duration::from_millis(d.opts.interval_ms) {
            return;
        }
        *last = now;
    }
    let faults = inner.cfg.checkpoint_faults.clone().unwrap_or_default();
    if let Err(e) = save_checkpoint(&d.opts.dir, &build_checkpoint(inner), &faults) {
        // The snapshot on disk is now stale relative to what this daemon
        // knows.  Quarantine it: recovery then derives everything from the
        // WAL (which is authoritative for the measurement) instead of
        // resurrecting supervision state the daemon failed to keep fresh.
        lock(&inner.metrics).checkpoint_failures += 1;
        let _ = quarantine_checkpoint(&d.opts.dir);
        obs_event!(
            obs::Level::Error,
            "daemon",
            "checkpoint_write_failed",
            quarantined = true,
            error = obs::InlineStr::new(&e.to_string())
        );
    }
}

/// One pass of the supervision loop: deadline-check registered agents,
/// then issue backoff-gated (re)launches for everything the core manager
/// reports as needing one.
fn supervision_tick(inner: &Arc<Inner>) {
    let now = Instant::now();
    let timeout = Duration::from_millis(inner.cfg.heartbeat_timeout_ms);

    // Heartbeat deadlines → deaths.  This covers both a registered agent
    // that went silent and a crashed one whose connection already closed:
    // `last_activity` keeps ticking from the agent's last sign of life,
    // and taking it (`None`) latches the death so it is reported once.
    let mut died: Vec<usize> = Vec::new();
    {
        let mut slots = lock(&inner.slots);
        for (i, slot) in slots.iter_mut().enumerate() {
            if !slot.goodbye && slot.last_activity.is_some_and(|t| now.duration_since(t) > timeout)
            {
                slot.registered = false;
                slot.outbox = None;
                slot.last_activity = None;
                died.push(i);
            }
        }
    }
    if !died.is_empty() {
        inner.slots_changed.notify_all();
    }
    for &i in &died {
        // Credit uptime and record the death.
        let mut credit = None;
        {
            let mut slots = lock(&inner.slots);
            if let Some(since) = slots[i].registered_at.take() {
                credit = Some(now.duration_since(since).as_millis() as u64);
            }
        }
        {
            let mut metrics = lock(&inner.metrics);
            metrics.agents[i].deaths += 1;
            if let Some(ms) = credit {
                metrics.agents[i].uptime_ms += ms;
            }
        }
        obs_event!(obs::Level::Warn, "daemon", "agent_dead", agent = i);
        let report = StatusReport {
            honeypot: HoneypotId(i as u32),
            at: inner.now_sim(),
            status: HoneypotStatus::Dead,
        };
        lock(&inner.book).on_status(report);
    }

    // Launches: the core's pure query says who, the slot's backoff gate
    // says when, `mark_relaunched` does the counting exactly once.  A
    // launch in flight is never doubled: it has the heartbeat timeout plus
    // the spool lock wait to register (after a manager crash, a relaunch
    // waits out the lock of its predecessor, still retrying the dead one).
    let in_flight_grace = timeout + LOCK_WAIT;
    let needing = lock(&inner.book).needing_relaunch();
    for id in needing {
        let i = id.0 as usize;
        let launch = {
            let mut slots = lock(&inner.slots);
            let slot = &mut slots[i];
            let gated = slot.next_launch_at.is_some_and(|t| now < t)
                || slot.launched_at.is_some_and(|t| now < t + in_flight_grace);
            if slot.goodbye || slot.registered || gated {
                None
            } else {
                // The unified policy paces the schedule and spends the
                // attempt budget; `None` means this agent has exhausted
                // its launches.  The gate is floored at the heartbeat
                // timeout, so even a launch that registered and died at
                // once is not repeated before then.
                match slot.backoff.next_deadline(now, inner.cfg.heartbeat_timeout_ms) {
                    Some(gate) => {
                        let incarnation = slot.next_incarnation;
                        slot.next_incarnation += 1;
                        slot.next_launch_at = Some(gate);
                        slot.launched_at = Some(now);
                        Some(incarnation)
                    }
                    None => None,
                }
            }
        };
        let Some(incarnation) = launch else { continue };
        // The core counts exactly once per incident (launches from
        // `Pending` are free); mirror its decision in the metrics.
        let counted = {
            let mut book = lock(&inner.book);
            let was_pending = matches!(book.status_of(id), HoneypotStatus::Pending);
            book.mark_relaunched(id);
            !was_pending
        };
        if counted {
            lock(&inner.metrics).agents[i].relaunches += 1;
            inner.notify_changed();
        }
        obs_event!(
            obs::Level::Info,
            "daemon",
            "agent_launch",
            agent = id.0,
            incarnation = incarnation,
            counted = counted
        );
        (inner.launcher)(id.0, incarnation, inner.addr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edonkey_proto::Ipv4;
    use honeypot::log::{FileTable, SharedLists};
    use honeypot::{ContentStrategy, FileStrategy, LogChunk, ServerInfo};

    #[test]
    fn recovery_counts_an_undecodable_wal_record_and_keeps_replaying() {
        let dir =
            std::env::temp_dir().join(format!("edhp-daemon-undecodable-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = CheckpointOptions::new(&dir);
        let server = ServerInfo::new("wal-test", Ipv4::new(127, 0, 0, 1), 4661);
        let upload = |seq: u64| {
            let chunk = LogChunk {
                honeypot: HoneypotId(0),
                server: server.clone(),
                records: Vec::new(),
                shared_lists: SharedLists::new(),
                peer_names: Vec::new(),
                files: FileTable::new(),
            };
            ControlMessage::LogUpload { agent: 0, seq, chunk }.encode_payload()
        };
        {
            let mut wal = Spool::open(opts.wal_dir()).unwrap();
            wal.append(0, &upload(0)).unwrap();
            wal.append(1, b"not a log upload").unwrap();
            wal.append(2, &upload(1)).unwrap();
        }
        let config = AgentConfig {
            id: HoneypotId(0),
            content: ContentStrategy::NoContent,
            files: FileStrategy::Fixed(Vec::new()),
            server: server.clone(),
            ip_salt: 7,
            rng_seed: 7,
            heartbeat_ms: 50,
            collect_ms: 60,
            client_name: "wal-agent".into(),
        };
        let daemon = Daemon::start(
            DaemonConfig {
                heartbeat_timeout_ms: 60_000,
                checkpoint: Some(opts),
                ..DaemonConfig::default()
            },
            vec![config],
            Box::new(|_, _, _| {}),
        )
        .unwrap();
        let (_log, metrics, order) =
            daemon.finish(SimTime::from_secs(60), 0, 1, Duration::from_millis(100));
        assert_eq!(order, vec![(0, 0), (0, 1)], "both good chunks merged, in WAL order");
        assert_eq!(metrics.agents[0].chunks_merged, 2);
        assert_eq!(metrics.wal_undecodable_records, 1);
        assert_eq!(metrics.manager_restores, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
