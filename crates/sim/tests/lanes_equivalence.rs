//! Lane-sharding equivalence, pinned across explicit worker counts:
//! the merged log of a sharded run is a pure function of the scenario
//! config — same bytes whether the lanes run on 1, 2, or 8 workers, and
//! same bytes as the lane-ordered sequential reference.  Companion to the
//! inline unit tests in `src/lanes.rs` and the calibrated-scenario
//! equivalence tests in the experiments crate.

use edonkey_sim::config::{HoneypotSetup, ScenarioConfig};
use edonkey_sim::lanes::{run_sharded, run_sharded_reference};
use honeypot::strategy::ContentStrategy;
use netsim::SimTime;

/// Five fixed-list honeypots with uneven attractiveness and both content
/// strategies — enough lanes that worker threads actually interleave them.
fn five_hp_config(seed: u64) -> ScenarioConfig {
    let mut c = ScenarioConfig::tiny(seed);
    c.duration = SimTime::from_days(2);
    c.honeypots = vec![
        HoneypotSetup::fixed(ContentStrategy::NoContent, vec![0], 1.0),
        HoneypotSetup::fixed(ContentStrategy::RandomContent, vec![0, 1], 1.5),
        HoneypotSetup::fixed(ContentStrategy::NoContent, vec![1, 2], 0.7),
        HoneypotSetup::fixed(ContentStrategy::RandomContent, vec![2], 1.2),
        HoneypotSetup::fixed(ContentStrategy::NoContent, vec![0, 2], 0.9),
    ];
    c
}

#[test]
fn sharded_log_is_identical_for_every_pool_size() {
    let config = five_hp_config(29);
    let reference = run_sharded_reference(config.clone());
    assert!(reference.log.validate().is_empty());
    assert!(!reference.log.records.is_empty());

    for threads in [1usize, 2, 8] {
        let out = netsim::par::with_workers(threads, || run_sharded(config.clone()));
        assert_eq!(
            format!("{:?}", out.log),
            format!("{:?}", reference.log),
            "sharded log must not depend on the worker count ({threads} threads)"
        );
        assert_eq!(out.relaunches, reference.relaunches);
        assert_eq!(out.stats.arrivals, reference.stats.arrivals);
        assert_eq!(out.stats.sessions, reference.stats.sessions);
    }
}

#[test]
fn lanes_are_decorrelated_but_share_the_catalog() {
    let config = five_hp_config(31);
    let out = run_sharded_reference(config.clone());

    // Every honeypot survived the merge, in scenario order.
    assert_eq!(out.log.honeypots.len(), 5);
    for (i, hp) in out.log.honeypots.iter().enumerate() {
        assert_eq!(hp.id.0 as usize, i);
    }

    // Reseeding changes the traffic: lanes really do draw from the seed.
    let other = run_sharded_reference(five_hp_config(32));
    assert_ne!(
        format!("{:?}", out.log.records),
        format!("{:?}", other.log.records),
        "different seeds must give different sharded traffic"
    );
}
