//! The world merges collected logs on a thread of its own.  That thread
//! must be invisible in the log — the same bytes however the runs are
//! scheduled — and must never outlive its world.

use std::sync::{Mutex, PoisonError};

use edonkey_sim::config::{CrashConfig, ScenarioConfig};
use edonkey_sim::world::{run_scenario, EdonkeyWorld};
use netsim::par::{par_map, with_workers};
use netsim::time::MS_PER_HOUR;
use netsim::{Engine, EventQueue, SimTime};

/// Serialises the tests of this file: one of them counts this process's
/// merge threads.
static SERIAL: Mutex<()> = Mutex::new(());

/// A tiny scenario whose honeypots crash and get relaunched.
fn crashing(seed: u64) -> ScenarioConfig {
    let mut config = ScenarioConfig::tiny(seed);
    config.crashes = Some(CrashConfig { mtbf_ms: 6 * MS_PER_HOUR });
    config
}

/// The stored bytes of the scenario's merged log.
fn log_bytes(seed: u64, run: usize) -> (Vec<u8>, u64) {
    let out = run_scenario(crashing(seed));
    let path = std::env::temp_dir()
        .join(format!("edhp-merge-thread-{}-{seed}-{run}.edhp", std::process::id()));
    honeypot::storage::save(&out.log, &path).expect("save log");
    let bytes = std::fs::read(&path).expect("read log back");
    let _ = std::fs::remove_file(&path);
    (bytes, out.relaunches)
}

#[test]
fn concurrent_reruns_store_identical_logs() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    const SEEDS: u64 = 8;
    // Each seed's first runs fill the first half of the work list and its
    // second runs the second half, so on four workers the two runs of a
    // seed execute at the same time, each beside its own merge thread.
    let jobs: Vec<(u64, usize)> =
        (0..2).flat_map(|run| (0..SEEDS).map(move |s| (s, run))).collect();
    let logs = with_workers(4, || par_map(jobs, |(seed, run)| log_bytes(seed, run)));
    let (first, second) = logs.split_at(SEEDS as usize);
    for (seed, (a, b)) in first.iter().zip(second).enumerate() {
        assert!(a.0 == b.0, "seed {seed}: the two runs stored different bytes");
        assert_eq!(a.1, b.1, "seed {seed}: relaunch counts differ");
    }
    assert!(first.iter().any(|(_, relaunches)| *relaunches > 0), "crashes must fire");
}

/// Threads of this process named like the world's merge thread.
#[cfg(target_os = "linux")]
fn merge_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("list this process's threads")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|name| name.trim_end() == "log-merge")
        .count()
}

#[cfg(target_os = "linux")]
#[test]
fn dropping_a_world_mid_run_ends_its_merge_thread() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let mut engine = Engine::with_queue(EventQueue::new());
    let mut world = EdonkeyWorld::new(crashing(3), &mut engine);
    // Past a few collections, so chunks have gone to the merge.
    engine.run_until(&mut world, SimTime::from_hours(30));
    // A spawned thread names itself once it runs, and a joined thread's
    // task entry may outlive `join` briefly: wait for each exact count.
    assert!(merge_threads_become(1), "the world runs one merge thread");
    drop(world);
    assert!(merge_threads_become(0), "dropping the world ends its merge thread");
}

/// Whether this process comes to hold exactly `n` merge threads within
/// five seconds.
#[cfg(target_os = "linux")]
fn merge_threads_become(n: usize) -> bool {
    use std::time::{Duration, Instant};
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        if merge_threads() == n {
            return true;
        }
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}
