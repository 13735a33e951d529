//! # edonkey-platform — live control plane
//!
//! The paper's measurement platform (§III-A) is a *distributed* system: a
//! manager machine supervises honeypots running elsewhere, pushes their
//! configuration, watches their health, relaunches the dead ones and
//! collects their logs.  This crate is that platform as a live network
//! service over TCP:
//!
//! * [`daemon::Daemon`] — the manager: a pool of non-blocking reactor
//!   shards (`reactor`, PR 6) multiplexes every agent connection —
//!   registration, [`messages::AgentConfig`] pushes, heartbeats, chunk
//!   ingest — from a handful of threads, a single merge thread streams
//!   sequenced log chunks into the same [`honeypot::Manager`]
//!   merge/anonymise pipeline the in-process path uses, and a supervision
//!   loop declares silent agents dead and relaunches them with
//!   exponential backoff;
//! * [`agent::run_agent`] — a supervised honeypot: wraps
//!   [`edonkey_net::HoneypotHost`], registers with the daemon, heartbeats,
//!   and ships its log as windowed, pipelined sequenced chunks (up to the
//!   granted window in flight, cumulative acks trimming the spool) that
//!   survive corruption, truncation, crashes and reconnects;
//! * [`messages`] — the typed control protocol over the versioned,
//!   CRC-protected framing of [`edonkey_proto::control`];
//! * [`fault`] — scripted agent misbehaviour for recovery testing;
//! * [`journal`] — a pre-transport chunk journal whose replay proves the
//!   transport moved every record exactly once, unmodified, in order;
//! * [`metrics`] — platform health counters (RTTs, relaunches, chunk
//!   bytes, resumes, uptime) with a JSON report;
//! * [`deployment`] — a one-call loopback deployment (manager + eDonkey
//!   server + N agents on 127.0.0.1) used by tests, the experiment
//!   runner's `--live-loopback` demo and CI.
//!
//! Crash safety (PR 4) spans three modules: [`Spool`] (from
//! [`honeypot::spool`], re-exported here) is the durable write-ahead
//! segment log agents (and the daemon's chunk WAL) append to before
//! anything is acknowledged; [`checkpoint`] is the daemon's
//! atomically-replaced supervision snapshot plus WAL layout; [`retry`] is
//! the one seeded backoff policy every retry site (relaunch, reconnect,
//! resend) now shares.  The contract: an acknowledged chunk is always
//! recoverable, a crashed side replays exactly what was lost, and no
//! chunk is ever merged twice.
//!
//! The adversarial fault model (PR 9) adds degraded-but-alive failure
//! modes on top: [`impair`] is a deterministic seeded link-damage shim
//! (loss as retransmission stalls, duplication, reordering, delay,
//! jitter, rate caps, partitions — same seed, same byte timeline)
//! installed at the agent end, in the blocking [`conn`], where it
//! schedules both directions; [`DiskFaults`] (also from
//! [`honeypot::spool`]) is the injectable write-fault handle (ENOSPC /
//! EIO / short write) the spool, WAL and checkpoint writers consult so
//! disk death degrades the measurement visibly instead of corrupting
//! it; [`transport`] is the accept-loop
//! error triage the daemon and the scraper share.  The daemon hardens
//! itself against hostile peers (handshake/idle/slow-loris deadlines, frame
//! caps, merge-queue shedding with window shrink), and every
//! degradation surfaces as a named [`metrics`] counter.  DESIGN.md §3h
//! tabulates the full fault grid; `tests/chaos_matrix.rs` drives it.
//!
//! The observability layer (PR 10, DESIGN.md §3i) is [`obs`]: the
//! structured-event facade and per-thread flight recorder (re-exported
//! from `netsim::obs` so the sim and analysis crates share it),
//! mergeable log-linear [`obs::Histogram`]s feeding p50/p90/p99 into
//! [`metrics::PlatformMetrics`] — the one record of every daemon-side
//! sample — and the [`obs::Scraper`] that appends a JSONL time series
//! of the daemon's own `PlatformMetrics` and answers one-shot loopback
//! snapshot scrapes while a swarm runs.  [`obs::Registry::global`] keeps
//! only the two histograms the agent side records per process: chunk
//! RTT and spool append latency.  The contract: observation is *pure* —
//! measurement logs and control byte streams are bit-identical at every
//! verbosity (`tests/obs_purity.rs`).

pub mod agent;
pub mod checkpoint;
pub mod conn;
pub mod daemon;
pub mod deployment;
pub mod fault;
pub mod impair;
pub mod journal;
pub mod messages;
pub mod metrics;
pub mod obs;
pub(crate) mod reactor;
pub mod retry;
#[cfg(unix)]
mod sys;
pub mod transport;

pub use agent::{run_agent, AgentExit, AgentOptions};
pub use checkpoint::{load_checkpoint, save_checkpoint, CheckpointOptions, ManagerCheckpoint};
pub use conn::{ConnError, ConnEvent, ControlConn};
pub use daemon::{Daemon, DaemonConfig, Launcher};
pub use deployment::{LoopbackDeployment, LoopbackOptions, LoopbackOutcome, LoopbackSpec};
pub use fault::{FaultPlan, FaultState};
pub use honeypot::spool::{DiskFaultKind, DiskFaults, Spool, SpoolConfig, SpoolRecord};
pub use impair::{ImpairPlan, ImpairStats, ImpairedLink, Partition};
pub use journal::{measurement_diff, ChunkJournal};
pub use messages::{AgentConfig, ControlMessage};
pub use metrics::{AgentMetrics, PlatformMetrics};
pub use obs::{FlightDumpOnPanic, Histogram, ObsConfig, Registry, Scraper};
pub use retry::{Backoff, RetryPolicy};
