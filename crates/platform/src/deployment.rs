//! A complete loopback deployment: one manager daemon, one in-process
//! eDonkey server, N supervised agents — all over real TCP on 127.0.0.1.
//!
//! This is the live analogue of the in-process pipeline: the same
//! honeypot state machines, the same merge/anonymise path, but every log
//! record crosses two sockets (peer → honeypot, honeypot → manager)
//! before it lands in the [`MeasurementLog`].  Used by the acceptance
//! tests, the `--live-loopback` experiment demo and the CI smoke job.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use edonkey_net::{NetServer, ScriptedPeer};
use edonkey_proto::{FileId, Ipv4};
use honeypot::spool::DiskFaults;
use honeypot::{
    ContentStrategy, FileStrategy, HoneypotId, HoneypotSpec, MeasurementLog, ServerInfo,
};
use netsim::rng::stream_seed;
use netsim::sync::lock;
use netsim::SimTime;

use crate::agent::{run_agent, AgentExit, AgentOptions};
use crate::daemon::{Daemon, DaemonConfig};
use crate::fault::FaultPlan;
use crate::impair::ImpairPlan;
use crate::journal::{measurement_diff, ChunkJournal};
use crate::messages::AgentConfig;
use crate::metrics::PlatformMetrics;

/// Per-agent description of a loopback deployment.
#[derive(Clone, Debug)]
pub struct LoopbackSpec {
    pub content: ContentStrategy,
    pub files: FileStrategy,
    /// Scripted misbehaviour for this agent (default: none).
    pub fault: FaultPlan,
    /// Deterministic link impairment on this agent's control connection
    /// (default: none — a transparent link).
    pub impair: Option<ImpairPlan>,
    /// Injectable spool write faults for this agent (default: none).
    pub spool_faults: Option<DiskFaults>,
}

impl LoopbackSpec {
    /// A well-behaved agent with a fixed advertise list.
    pub fn fixed(content: ContentStrategy, files: FileStrategy) -> Self {
        LoopbackSpec {
            content,
            files,
            fault: FaultPlan::default(),
            impair: None,
            spool_faults: None,
        }
    }
}

/// Tuning knobs for the deployment.
#[derive(Clone, Debug)]
pub struct LoopbackOptions {
    pub daemon: DaemonConfig,
    /// Master seed; per-agent RNG streams and the IP salt derive from it.
    pub seed: u64,
    pub heartbeat_ms: u64,
    pub collect_ms: u64,
    /// Give every agent a durable spool under `<dir>/agent-<id>` so a
    /// killed incarnation's unacknowledged chunks survive the restart.
    pub spool_dir: Option<PathBuf>,
}

impl Default for LoopbackOptions {
    fn default() -> Self {
        LoopbackOptions {
            daemon: DaemonConfig::default(),
            seed: 0xED0_2009,
            heartbeat_ms: 50,
            collect_ms: 60,
            spool_dir: None,
        }
    }
}

/// A running loopback deployment.
pub struct LoopbackDeployment {
    server: Option<NetServer>,
    daemon: Option<Daemon>,
    journal: ChunkJournal,
    handles: Arc<Mutex<Vec<JoinHandle<AgentExit>>>>,
    hp_specs: Vec<HoneypotSpec>,
    /// Retained for daemon recovery after a simulated crash.
    configs: Vec<AgentConfig>,
    /// Per-agent robustness knobs (fault plan, impairment, disk faults);
    /// `spool_dir` is filled in per launch from [`LoopbackOptions`].
    knobs: Vec<AgentOptions>,
    opts: LoopbackOptions,
}

impl LoopbackDeployment {
    /// Starts the server, the daemon and one supervised agent thread per
    /// spec.  Agents are launched by the daemon's supervision loop, so
    /// they may not be up yet when this returns — use
    /// [`LoopbackDeployment::wait_ready`].
    pub fn start(specs: Vec<LoopbackSpec>, opts: LoopbackOptions) -> std::io::Result<Self> {
        let server = NetServer::start()?;
        let server_info =
            ServerInfo::new("live-loopback", Ipv4::new(127, 0, 0, 1), server.addr().port());
        let ip_salt = stream_seed(opts.seed, 0xA);

        let configs: Vec<AgentConfig> = specs
            .iter()
            .enumerate()
            .map(|(i, s)| AgentConfig {
                id: HoneypotId(i as u32),
                content: s.content,
                files: s.files.clone(),
                server: server_info.clone(),
                ip_salt,
                rng_seed: stream_seed(opts.seed, 0x100 + i as u64),
                heartbeat_ms: opts.heartbeat_ms,
                collect_ms: opts.collect_ms,
                client_name: format!("honeypot-{i}"),
            })
            .collect();
        let hp_specs: Vec<HoneypotSpec> = configs
            .iter()
            .map(|c| HoneypotSpec { id: c.id, content: c.content, server: c.server.clone() })
            .collect();

        let journal = ChunkJournal::new();
        let knobs: Vec<AgentOptions> = specs
            .iter()
            .map(|s| AgentOptions {
                fault: s.fault.clone(),
                spool_dir: None,
                impair: s.impair.clone(),
                spool_faults: s.spool_faults.clone(),
            })
            .collect();
        let handles: Arc<Mutex<Vec<JoinHandle<AgentExit>>>> = Arc::new(Mutex::new(Vec::new()));

        let launcher =
            make_launcher(journal.clone(), handles.clone(), knobs.clone(), opts.spool_dir.clone());
        let daemon = Daemon::start(opts.daemon.clone(), configs.clone(), launcher)?;
        Ok(LoopbackDeployment {
            server: Some(server),
            daemon: Some(daemon),
            journal,
            handles,
            hp_specs,
            configs,
            knobs,
            opts,
        })
    }

    pub fn daemon(&self) -> &Daemon {
        self.daemon.as_ref().expect("deployment finished or crashed")
    }

    /// Simulates a manager crash: the daemon abandons its in-memory merge
    /// state, metrics and connections without draining or finalizing.
    /// Agents keep running, fail their uploads, and retry; whether the
    /// measurement survives depends entirely on the checkpoint/WAL.  Call
    /// [`LoopbackDeployment::recover_daemon`] to continue the run.
    pub fn crash_daemon(&mut self) {
        if let Some(daemon) = self.daemon.take() {
            daemon.crash();
        }
    }

    /// Starts a fresh daemon after [`LoopbackDeployment::crash_daemon`],
    /// on the same configs and checkpoint directory.  The new daemon
    /// binds a new port; still-alive agent threads give up on the dead
    /// address and exit, and the recovered supervision state relaunches
    /// them against the new one (same spool dirs, so nothing is lost).
    pub fn recover_daemon(&mut self) -> std::io::Result<()> {
        assert!(self.daemon.is_none(), "crash_daemon first");
        let launcher = make_launcher(
            self.journal.clone(),
            self.handles.clone(),
            self.knobs.clone(),
            self.opts.spool_dir.clone(),
        );
        self.daemon =
            Some(Daemon::start(self.opts.daemon.clone(), self.configs.clone(), launcher)?);
        Ok(())
    }

    /// The eDonkey server address peers log into.
    pub fn server_addr(&self) -> SocketAddr {
        self.server.as_ref().expect("deployment finished").addr()
    }

    /// The shared pre-transport chunk journal.
    pub fn journal(&self) -> &ChunkJournal {
        &self.journal
    }

    /// Waits for every agent to register and report a ready honeypot.
    pub fn wait_ready(&self, timeout: Duration) -> bool {
        self.daemon().wait_agents_ready(timeout)
    }

    /// Logs a scripted peer into the server and runs one download attempt
    /// against an agent's honeypot, sharing `shared_files` if asked.
    /// Returns whether the honeypot answered the hello.
    pub fn drive_download(
        &self,
        peer_name: &str,
        agent: u32,
        file: FileId,
        requests: u32,
        shared_files: &[(FileId, &str, u64)],
    ) -> bool {
        let Some(addr) = self.daemon().agent_peer_addr(agent) else { return false };
        let Ok(mut peer) = ScriptedPeer::login(self.server_addr(), peer_name) else {
            return false;
        };
        match peer.attempt_download(addr, file, requests, Duration::from_millis(300), shared_files)
        {
            Ok(attempt) => attempt.hello_answered,
            Err(_) => false,
        }
    }

    /// Blocks until the daemon has merged at least `chunks` chunks in
    /// total (or the timeout passes).
    pub fn wait_chunks(&self, chunks: u64, timeout: Duration) -> bool {
        self.daemon().wait_chunks(chunks, timeout)
    }

    /// Shuts the platform down and finalizes the measurement.
    pub fn finish(
        mut self,
        duration: SimTime,
        shared_files_final: u32,
        name_threshold: u32,
        drain: Duration,
    ) -> LoopbackOutcome {
        let daemon = self.daemon.take().expect("finish called once");
        let (log, metrics, chunk_order) =
            daemon.finish(duration, shared_files_final, name_threshold, drain);
        if let Some(server) = self.server.take() {
            server.stop();
        }
        let mut exits = Vec::new();
        let handles = std::mem::take(&mut *lock(&self.handles));
        for handle in handles {
            if let Ok(exit) = handle.join() {
                exits.push(exit);
            }
        }
        LoopbackOutcome {
            log,
            metrics,
            chunk_order,
            journal: self.journal.clone(),
            hp_specs: self.hp_specs.clone(),
            duration,
            shared_files_final,
            name_threshold,
            exits,
        }
    }
}

/// Builds the supervised-launch closure shared by a fresh start and a
/// post-crash recovery: every (re)launch runs one agent thread wired to
/// the shared journal, its robustness knobs (fault plan, link impairment,
/// spool faults) and (optionally) its spool dir.
fn make_launcher(
    journal: ChunkJournal,
    handles: Arc<Mutex<Vec<JoinHandle<AgentExit>>>>,
    knobs: Vec<AgentOptions>,
    spool_dir: Option<PathBuf>,
) -> crate::daemon::Launcher {
    Box::new(move |agent: u32, incarnation: u32, addr: SocketAddr| {
        let mut opts = knobs[agent as usize].clone();
        opts.spool_dir = spool_dir.as_ref().map(|d| d.join(format!("agent-{agent}")));
        let journal = journal.clone();
        let handle = std::thread::spawn(move || run_agent(addr, agent, incarnation, journal, opts));
        lock(&handles).push(handle);
    })
}

/// Everything a finished loopback deployment produced.
pub struct LoopbackOutcome {
    /// The merged, anonymised measurement — same type, same pipeline as
    /// the in-process path.
    pub log: MeasurementLog,
    pub metrics: PlatformMetrics,
    /// `(agent, seq)` in daemon merge order.
    pub chunk_order: Vec<(u32, u64)>,
    pub journal: ChunkJournal,
    pub hp_specs: Vec<HoneypotSpec>,
    pub duration: SimTime,
    pub shared_files_final: u32,
    pub name_threshold: u32,
    /// Exit statuses of every agent thread launched (incarnations
    /// included).
    pub exits: Vec<AgentExit>,
}

impl LoopbackOutcome {
    /// Replays the pre-transport journal through a fresh in-process
    /// manager in daemon merge order and compares the result with the
    /// live log.  `None` means the control plane moved every record
    /// exactly once, unmodified, in order.
    pub fn replay_divergence(&self) -> Option<String> {
        let replayed = self.journal.replay(
            &self.chunk_order,
            self.hp_specs.clone(),
            self.duration,
            self.shared_files_final,
            self.name_threshold,
        );
        measurement_diff(&self.log, &replayed)
    }
}
