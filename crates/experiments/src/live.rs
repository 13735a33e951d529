//! The `--live-loopback` demo: a real-TCP control-plane measurement.
//!
//! Everything else in this crate measures the *simulated* eDonkey world.
//! This module instead deploys the live platform — manager daemon, eDonkey
//! server and N supervised agents, all over loopback TCP — drives a little
//! scripted-peer traffic at the honeypots, and finalizes through the same
//! merge/anonymise pipeline.  It is a demo and smoke path, not a paper
//! artefact: its value is showing the control plane move real bytes and
//! proving (by journal replay) that the transport was lossless.

use std::path::PathBuf;
use std::time::Duration;

use edonkey_platform::{
    CheckpointOptions, DaemonConfig, FaultPlan, LoopbackDeployment, LoopbackOptions, LoopbackSpec,
    PlatformMetrics,
};
use edonkey_proto::FileId;
use honeypot::{AdvertisedFile, ContentStrategy, FileStrategy, MeasurementLog};
use netsim::SimTime;

/// Durability knobs for the live demo (`--spool-dir`,
/// `--checkpoint-interval`): agents spool chunks under `dir/spool`
/// before sending and the manager snapshots supervision state plus its
/// chunk WAL under `dir/ckpt`, so a crashed side replays instead of
/// losing the run.
#[derive(Clone, Debug)]
pub struct LiveDurability {
    /// Root directory for the spools and the checkpoint.
    pub dir: PathBuf,
    /// Snapshot cadence in milliseconds (the WAL is written continuously
    /// regardless; `None` keeps the default).
    pub checkpoint_interval_ms: Option<u64>,
}

impl LiveDurability {
    /// The daemon-side checkpoint configuration.
    fn checkpoint(&self) -> CheckpointOptions {
        let mut opts = CheckpointOptions::new(self.dir.join("ckpt"));
        if let Some(ms) = self.checkpoint_interval_ms {
            opts.interval_ms = ms;
        }
        opts
    }
}

/// Result of the live loopback demo.
pub struct LiveDemo {
    pub log: MeasurementLog,
    pub metrics: PlatformMetrics,
    /// `None` when the journal replay reproduced the live measurement
    /// exactly (the expected outcome); a description of the first
    /// divergence otherwise.
    pub divergence: Option<String>,
}

/// Deploys `agents` supervised honeypots (one of them crash-injected when
/// `inject_crash`), drives one scripted download against each, and
/// finalizes the measurement.  With `durability`, the whole run is
/// crash-safe: a manager crash is additionally injected after round 1 and
/// the recovered daemon must carry the measurement through unharmed.
pub fn run_live_loopback(
    agents: usize,
    seed: u64,
    inject_crash: bool,
    durability: Option<&LiveDurability>,
) -> std::io::Result<LiveDemo> {
    assert!(agents >= 1, "at least one agent");
    let specs: Vec<LoopbackSpec> = (0..agents)
        .map(|i| {
            let fault = if inject_crash && i == agents - 1 {
                FaultPlan { kill_after_chunk: Some(0), ..FaultPlan::default() }
            } else {
                FaultPlan::default()
            };
            LoopbackSpec {
                content: ContentStrategy::NoContent,
                files: FileStrategy::Fixed(vec![AdvertisedFile::new(
                    demo_file(i),
                    format!("live demo file {i}.avi"),
                    42_000_000,
                )]),
                fault,
                impair: None,
                spool_faults: None,
            }
        })
        .collect();

    let daemon = DaemonConfig {
        checkpoint: durability.map(LiveDurability::checkpoint),
        ..DaemonConfig::default()
    };
    let spool_dir = durability.map(|d| d.dir.join("spool"));
    let opts = LoopbackOptions { daemon, seed, spool_dir, ..LoopbackOptions::default() };
    let mut deployment = LoopbackDeployment::start(specs, opts)?;
    waited(deployment.wait_ready(Duration::from_secs(10)), "agents never became ready")?;

    for i in 0..agents as u32 {
        deployment.drive_download(&format!("demo-peer-{i}"), i, demo_file(i as usize), 1, &[]);
    }
    waited(
        deployment.wait_chunks(agents as u64, Duration::from_secs(10)),
        "the first round's chunks never merged",
    )?;

    if durability.is_some() {
        // The durable path earns its keep: kill the manager outright,
        // recover a fresh one from the checkpoint + WAL, and keep
        // measuring.  Without the WAL the merges so far would be gone and
        // the replay check below would fail.  The pause stands for "a
        // supervision snapshot written after the merges above": snapshots
        // land every `CheckpointOptions::interval_ms` (100 ms by default),
        // so 300 ms spans several, and the recovered daemon restores
        // post-merge counters rather than start-up ones.
        std::thread::sleep(Duration::from_millis(300));
        deployment.crash_daemon();
        deployment.recover_daemon()?;
        waited(
            deployment.wait_ready(Duration::from_secs(30)),
            "agents never re-registered after manager recovery",
        )?;
        deployment.drive_download("demo-peer-postcrash", 0, demo_file(0), 1, &[]);
        waited(
            deployment.wait_chunks(agents as u64 + 1, Duration::from_secs(20)),
            "the post-recovery chunk never merged",
        )?;
    }

    if inject_crash {
        // Wait for the killed agent to be launched again and report ready,
        // then hit it again so the resumed stream carries data.  Without
        // a manager restart the supervision loop relaunches it (a counted
        // relaunch); after one, the recovered daemon launches every agent
        // from `Pending`, which counts no relaunch but is a second launch
        // all the same.
        let last = agents as u32 - 1;
        waited(
            deployment.daemon().wait_agent_ready(last, 2, Duration::from_secs(10)),
            "the killed agent never came back",
        )?;
        deployment.drive_download("demo-peer-revisit", last, demo_file(agents - 1), 1, &[]);
        waited(
            deployment.wait_chunks(agents as u64 + 1, Duration::from_secs(10)),
            "the revisited agent's chunk never merged",
        )?;
    }

    let outcome = deployment.finish(SimTime::from_secs(60), 4, 1, Duration::from_secs(5));
    let divergence = outcome.replay_divergence();
    Ok(LiveDemo { log: outcome.log, metrics: outcome.metrics, divergence })
}

/// Turns a `wait_*` that timed out into the demo's error.
fn waited(done: bool, what: &str) -> std::io::Result<()> {
    if done {
        Ok(())
    } else {
        Err(std::io::Error::new(std::io::ErrorKind::TimedOut, what.to_string()))
    }
}

fn demo_file(i: usize) -> FileId {
    FileId::from_seed(format!("live-demo-{i}").as_bytes())
}
