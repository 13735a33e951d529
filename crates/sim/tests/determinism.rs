//! The queue-choice determinism guarantee: a scenario is a pure function
//! of its configuration and seed, *independent of which pending-event
//! queue drives the engine*.  Heap, calendar, and timing-wheel runs must
//! produce identical measurement logs down to the last record — the
//! property that makes [`edonkey_sim::config::QueueKind`] a pure
//! performance knob.

use edonkey_sim::config::{HoneypotSetup, QueueKind, ScenarioConfig};
use edonkey_sim::world::run_scenario;
use netsim::SimTime;

fn scenario(seed: u64, queue: QueueKind) -> ScenarioConfig {
    let mut config = ScenarioConfig::tiny(seed).scaled(0.3);
    config.queue = queue;
    config
}

#[test]
fn all_queues_produce_identical_logs() {
    for seed in [1u64, 42, 0xED0_2009] {
        let heap = run_scenario(scenario(seed, QueueKind::Heap));
        for (name, other) in [
            ("calendar", run_scenario(scenario(seed, QueueKind::Calendar))),
            ("wheel", run_scenario(scenario(seed, QueueKind::Wheel))),
        ] {
            // Record-level equality first, for a readable failure…
            assert_eq!(
                heap.log.records, other.log.records,
                "records diverged between heap and {name} (seed {seed})"
            );
            assert_eq!(heap.log.shared_lists, other.log.shared_lists, "{name}, seed {seed}");
            assert_eq!(heap.log.distinct_peers, other.log.distinct_peers, "{name}, seed {seed}");
            assert_eq!(
                heap.log.shared_files_final, other.log.shared_files_final,
                "{name}, seed {seed}"
            );

            // …then whole-struct equality via the Debug rendering, which
            // covers every remaining field (honeypot metadata, name/file
            // tables) without requiring PartialEq on all of them.
            assert_eq!(
                format!("{:?}", heap.log),
                format!("{:?}", other.log),
                "logs diverged between heap and {name} (seed {seed})"
            );
            assert_eq!(heap.relaunches, other.relaunches, "{name}, seed {seed}");
        }
    }
}

#[test]
fn same_seed_same_queue_is_reproducible() {
    let a = run_scenario(scenario(7, QueueKind::Calendar));
    let b = run_scenario(scenario(7, QueueKind::Calendar));
    assert_eq!(format!("{:?}", a.log), format!("{:?}", b.log));
}

/// A tiny greedy measurement: one honeypot adopting from shared lists for
/// its first day.
fn tiny_greedy(seed: u64) -> ScenarioConfig {
    let mut config = ScenarioConfig::tiny(seed).scaled(0.3);
    config.honeypots = vec![HoneypotSetup::greedy(vec![0, 1, 2], SimTime::from_days(1), 150)];
    config
}

/// The catalog's naming pass and the final name rewrite run on
/// `netsim::par` workers; the log is the same for any number of them.
#[test]
fn greedy_log_is_independent_of_the_worker_count() {
    let log = |workers| {
        netsim::par::with_workers(workers, || format!("{:?}", run_scenario(tiny_greedy(5)).log))
    };
    let one = run_scenario(tiny_greedy(5));
    assert!(one.log.shared_files_final > 3, "the honeypot must adopt files");
    assert!(one.log.files.len() > 3, "files beyond the seeds must be named");
    let one = log(1);
    for workers in [2, 8] {
        assert!(log(workers) == one, "{workers} workers produce a different log");
    }
}
