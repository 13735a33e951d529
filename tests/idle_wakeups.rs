//! An idle deployment sleeps: a ready two-agent loopback deployment left
//! alone for a second may wake its threads at most a few hundred times.
//! What remains is the periodic work the paper's manager really does —
//! heartbeats, collection ticks, the supervision tick — not polling.
//!
//! Linux-only (it reads `/proc`), and alone in its own test binary so no
//! other test's threads are counted.

#![cfg(target_os = "linux")]

use std::time::{Duration, Instant};

use edonkey_honeypots::control::{LoopbackDeployment, LoopbackOptions, LoopbackSpec};
use edonkey_honeypots::platform::{AdvertisedFile, ContentStrategy, FileStrategy};
use edonkey_honeypots::proto::FileId;
use netsim::SimTime;

/// Ceiling on voluntary context switches per second, summed over every
/// thread of the process.  A polling daemon made ≈ 4,670.
const MAX_WAKEUPS_PER_SEC: f64 = 500.0;

/// `voluntary_ctxt_switches` summed over the process's live threads.
fn voluntary_switches() -> u64 {
    let mut total = 0;
    for task in std::fs::read_dir("/proc/self/task").expect("/proc/self/task").flatten() {
        let Ok(status) = std::fs::read_to_string(task.path().join("status")) else { continue };
        total += status
            .lines()
            .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
            .and_then(|v| v.trim().parse::<u64>().ok())
            .unwrap_or(0);
    }
    total
}

#[test]
fn an_idle_deployment_blocks_instead_of_polling() {
    let specs = (0..2)
        .map(|i| {
            let file = FileId::from_seed(format!("idle-{i}").as_bytes());
            LoopbackSpec::fixed(
                ContentStrategy::NoContent,
                FileStrategy::Fixed(vec![AdvertisedFile::new(file, "idle file.avi", 1 << 20)]),
            )
        })
        .collect();
    let deployment =
        LoopbackDeployment::start(specs, LoopbackOptions::default()).expect("start deployment");
    assert!(deployment.wait_ready(Duration::from_secs(10)), "agents never became ready");

    let before = voluntary_switches();
    let started = Instant::now();
    std::thread::sleep(Duration::from_secs(1));
    let per_sec = (voluntary_switches() - before) as f64 / started.elapsed().as_secs_f64();
    println!("idle deployment: {per_sec:.0} voluntary context switches per second");

    deployment.finish(SimTime::from_secs(60), 4, 1, Duration::from_secs(5));
    assert!(
        per_sec <= MAX_WAKEUPS_PER_SEC,
        "{per_sec:.0} wake-ups/s while idle (limit {MAX_WAKEUPS_PER_SEC})"
    );
}
