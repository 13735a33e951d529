//! The lane-sharding determinism guarantee on the paper's calibrated
//! scenarios: the parallel sharded execution and its lane-ordered
//! sequential reference must produce **bit-identical** measurement logs —
//! the same discipline `determinism.rs` pins for the queue choice.
//!
//! The greedy scenario exercises the other half of the contract: a greedy
//! honeypot couples honeypots through the shared advertised list, so the
//! scenario must fall back to the coupled engine unchanged.

use edonkey_experiments::scenarios;
use edonkey_sim::lanes::{run_sharded, run_sharded_reference};
use edonkey_sim::{run_scenario, ExecMode};

#[test]
fn distributed_sharded_matches_sequential_reference() {
    let config = scenarios::distributed(5, 0.01);
    let par = run_sharded(config.clone());
    let seq = run_sharded_reference(config);

    // Record-level equality first, for a readable failure…
    assert_eq!(par.log.records, seq.log.records, "records diverged");
    assert_eq!(par.log.shared_lists, seq.log.shared_lists);
    assert_eq!(par.log.peer_names, seq.log.peer_names);
    assert_eq!(par.log.distinct_peers, seq.log.distinct_peers);

    // …then whole-struct equality via the Debug rendering, which covers
    // every remaining field without requiring PartialEq on all of them.
    assert_eq!(format!("{:?}", par.log), format!("{:?}", seq.log), "logs diverged");
    assert_eq!(par.relaunches, seq.relaunches);
    assert_eq!(par.stats.arrivals, seq.stats.arrivals);
    assert_eq!(par.stats.sessions, seq.stats.sessions);

    // And the sharded output is a sound measurement in its own right.
    assert!(par.log.validate().is_empty());
    assert_eq!(par.log.honeypots.len(), 24, "all 24 honeypots present after the merge");
    assert!(par.log.records.len() > 100, "lanes must produce real traffic");
    // Lane offsets preserve the scenario's honeypot order: id i keeps the
    // alternating strategy layout of the distributed setup.
    for (i, hp) in par.log.honeypots.iter().enumerate() {
        assert_eq!(hp.id.0 as usize, i, "dense ids after merge");
    }
}

#[test]
fn greedy_sharded_falls_back_to_coupled_unchanged() {
    let sharded_cfg = {
        let mut c = scenarios::greedy(5, 0.01);
        c.exec = ExecMode::Sharded;
        c
    };
    let coupled_cfg = scenarios::greedy(5, 0.01);

    let par = run_sharded(sharded_cfg.clone());
    let seq = run_sharded_reference(sharded_cfg.clone());
    let coupled = run_scenario(coupled_cfg);

    assert_eq!(format!("{:?}", par.log), format!("{:?}", seq.log));
    // One greedy honeypot = one lane = the coupled engine, so all three
    // executions are the same computation.
    assert_eq!(
        format!("{:?}", par.log),
        format!("{:?}", coupled.log),
        "greedy must stay single-lane: sharded output == coupled output"
    );
    assert!(par.log.validate().is_empty());

    // The dispatch path agrees with the direct call.
    let dispatched = run_scenario(sharded_cfg);
    assert_eq!(format!("{:?}", dispatched.log), format!("{:?}", par.log));
}
