//! Lane-sharded scenario execution.
//!
//! The paper's platform scales by running its 24 honeypots *in parallel*
//! against the live network; the honeypots only couple through the manager
//! (log collection) and, for the greedy strategy, through the shared
//! advertised-file list.  This module exploits that seam: a scenario whose
//! honeypots all advertise **fixed** file lists is partitioned into one
//! *lane per honeypot* — an independent [`EdonkeyWorld`] owning that
//! honeypot, its own arrival process, and a dedicated RNG stream split
//! from the scenario seed (`netsim::rng::stream_seed`) — and the lanes run
//! on `netsim::par`.  Greedy honeypots adapt their advertised list to the
//! shared-list traffic they observe, a cross-honeypot feedback loop, so
//! any scenario containing one stays a single lane (the coupled engine):
//! strategy semantics are never sharded away.
//!
//! ## Determinism
//!
//! Each lane is a pure function of `(seed, lane_number)`: no lane observes
//! another lane's draws, so the per-lane outputs do not depend on thread
//! count or scheduling.  The merge stage (`honeypot::merge`) then orders
//! all lane events by the unique key `(SimTime, lane, seq)` and re-interns
//! peer ids in merged-stream order.  [`run_sharded`] (parallel) and
//! [`run_sharded_reference`] (plain sequential loop over the same lanes)
//! therefore produce **bit-identical** [`MeasurementLog`]s — pinned by
//! `tests/lanes_equivalence.rs` and the experiments crate's scenario
//! equivalence tests.
//!
//! A sharded run is *not* bit-identical to the coupled execution of the
//! same config: the lanes sample different (decorrelated) streams of the
//! same scenario distribution.  In particular, a coupled arrival contacts
//! a *subset* of honeypots as one peer, while lanes materialise their own
//! arrivals — per-honeypot load and traffic shape are preserved, but
//! cross-honeypot peer overlap is severed, so union statistics (distinct
//! peer totals, Fig. 10's union curve) read higher under sharding.
//! `ExecMode` is therefore an explicit opt-in knob, and calibrated figure
//! pipelines keep using the coupled engine.
//!
//! ## Arrival scaling
//!
//! In the coupled world a new peer contacts a *subset* of the honeypots
//! advertising its wanted files.  A lane only ever sees its own honeypot,
//! so the lane's arrival rate is the global rate thinned by the
//! probability that the subset includes this honeypot: with subset-all
//! probability `q`, mean subset size `k` over `n` providers and
//! attractiveness weights `w`, lane `h` keeps the share
//! `q + (1 − q) · min(k, n) · w_h / Σw` (clamped to 1).  This is a static
//! approximation — the coupled engine additionally reweights providers by
//! blacklist exposure and delivery quality at run time — but it preserves
//! per-honeypot load and the attractiveness spread that drives Fig. 10.

use honeypot::merge::LaneHarvest;
use honeypot::MeasurementLog;

use crate::config::{ExecMode, ScenarioConfig};
use crate::world::{run_lane, run_scenario, SimOutput, WorldStats};

/// One finished lane: the manager's pre-merge harvest plus the lane's
/// diagnostics.
pub struct LaneOutput {
    pub harvest: LaneHarvest,
    pub stats: WorldStats,
    pub relaunches: u64,
    pub shared_files_final: u32,
    pub events_handled: u64,
}

/// Whether a scenario can be partitioned into per-honeypot lanes: more
/// than one honeypot and no greedy strategy (greedy honeypots adapt to
/// shared-list traffic — a cross-honeypot feedback the lanes must not
/// sever).
pub fn shardable(config: &ScenarioConfig) -> bool {
    config.honeypots.len() > 1 && config.honeypots.iter().all(|h| h.fixed_files.is_some())
}

/// The share of global arrivals that would include honeypot `hp` in their
/// provider subset (see the module docs for the formula).
fn provider_share(config: &ScenarioConfig, hp: usize) -> f64 {
    let n = config.honeypots.len() as f64;
    let total: f64 = config.honeypots.iter().map(|h| h.attractiveness.max(0.0)).sum();
    if total <= 0.0 {
        return 1.0 / n;
    }
    let w = config.honeypots[hp].attractiveness.max(0.0);
    let q = config.behavior.subset_all_prob.clamp(0.0, 1.0);
    let k = config.behavior.subset_mean.max(1.0).min(n);
    (q + (1.0 - q) * k * (w / total)).min(1.0)
}

/// Builds the configuration of lane `hp` (0-based): the lane owns that one
/// honeypot, runs the coupled engine internally, is tagged with lane
/// number `hp + 1` (0 is reserved for "not a lane"), and keeps the
/// thinned share of the global arrival rate.
fn lane_config(config: &ScenarioConfig, hp: usize) -> ScenarioConfig {
    let mut lane = config.clone();
    lane.honeypots = vec![config.honeypots[hp].clone()];
    lane.exec = ExecMode::Coupled;
    lane.lane = hp as u32 + 1;
    lane.population.rate_per_popularity *= provider_share(config, hp);
    lane
}

/// Runs a sharded scenario, lanes in parallel.
pub fn run_sharded(config: ScenarioConfig) -> SimOutput {
    run_lanes(config, true)
}

/// The lane-ordered sequential reference: same lanes, same merge, plain
/// loop instead of worker threads.  Exists so tests can pin that
/// parallelism never changes the output.
pub fn run_sharded_reference(config: ScenarioConfig) -> SimOutput {
    run_lanes(config, false)
}

fn run_lanes(config: ScenarioConfig, parallel: bool) -> SimOutput {
    if !shardable(&config) {
        // Single honeypot or greedy strategy: one lane covering the whole
        // scenario *is* the coupled execution.
        let mut c = config;
        c.exec = ExecMode::Coupled;
        c.lane = 0;
        return run_scenario(c);
    }
    let duration = config.duration;
    let name_threshold = config.name_threshold;
    let lane_cfgs: Vec<ScenarioConfig> =
        (0..config.honeypots.len()).map(|i| lane_config(&config, i)).collect();
    // Lanes are independent; par_map preserves lane order regardless of
    // which thread finishes first, so the merge input — and therefore the
    // merged log — is schedule-independent.
    let outs: Vec<LaneOutput> = if parallel {
        netsim::par::par_map(lane_cfgs, run_lane)
    } else {
        lane_cfgs.into_iter().map(run_lane).collect()
    };

    let mut stats = WorldStats::default();
    let mut relaunches = 0u64;
    let mut shared_final = 0u32;
    let mut events_handled = 0u64;
    let mut harvests: Vec<LaneHarvest> = Vec::with_capacity(outs.len());
    for o in outs {
        stats.absorb(&o.stats);
        relaunches += o.relaunches;
        shared_final = shared_final.max(o.shared_files_final);
        events_handled += o.events_handled;
        harvests.push(o.harvest);
    }
    let log: MeasurementLog =
        honeypot::merge::merge_lanes(harvests, duration, shared_final, name_threshold);
    SimOutput { log, stats, relaunches, events_handled }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{HoneypotSetup, QueueKind};
    use honeypot::strategy::ContentStrategy;
    use netsim::SimTime;

    fn three_hp_config(seed: u64) -> ScenarioConfig {
        let mut c = ScenarioConfig::tiny(seed);
        c.duration = SimTime::from_days(1);
        c.honeypots = vec![
            HoneypotSetup::fixed(ContentStrategy::NoContent, vec![0], 1.0),
            HoneypotSetup::fixed(ContentStrategy::RandomContent, vec![0, 1], 1.4),
            HoneypotSetup::fixed(ContentStrategy::NoContent, vec![1], 0.6),
        ];
        c
    }

    #[test]
    fn shardable_rules() {
        assert!(!shardable(&ScenarioConfig::tiny(1)), "one honeypot: nothing to shard");
        assert!(shardable(&three_hp_config(1)));
        let mut greedy = three_hp_config(1);
        greedy.honeypots[1] = HoneypotSetup::greedy(vec![0], SimTime::from_days(1), 10);
        assert!(!shardable(&greedy), "greedy couples the honeypots");
    }

    #[test]
    fn provider_shares_sum_near_subset_mass() {
        let c = three_hp_config(1);
        let shares: Vec<f64> = (0..3).map(|i| provider_share(&c, i)).collect();
        assert!(shares.iter().all(|&s| (0.0..=1.0).contains(&s)));
        // More attractive honeypots get a larger share.
        assert!(shares[1] > shares[2]);
    }

    #[test]
    fn lane_configs_partition_the_scenario() {
        let c = three_hp_config(5);
        for i in 0..3 {
            let lane = lane_config(&c, i);
            assert_eq!(lane.honeypots.len(), 1);
            assert_eq!(lane.lane, i as u32 + 1);
            assert_eq!(lane.exec, ExecMode::Coupled);
            // A lane never sees more than the global arrival mass; a very
            // attractive honeypot's share can clamp at 1.0 (it appears in
            // every provider subset), so equality is allowed here.
            assert!(lane.population.rate_per_popularity <= c.population.rate_per_popularity);
        }
        // The least attractive honeypot is genuinely thinned.
        assert!(
            lane_config(&c, 2).population.rate_per_popularity < c.population.rate_per_popularity
        );
    }

    #[test]
    fn sharded_matches_sequential_reference_bit_for_bit() {
        let c = three_hp_config(11);
        let a = run_sharded(c.clone());
        let b = run_sharded_reference(c);
        assert_eq!(
            format!("{:?}", a.log),
            format!("{:?}", b.log),
            "parallel lanes vs sequential reference must be bit-identical"
        );
        assert_eq!(a.relaunches, b.relaunches);
        assert_eq!(a.stats.arrivals, b.stats.arrivals);
        assert!(a.log.validate().is_empty());
        assert!(!a.log.records.is_empty(), "lanes must produce traffic");
        assert_eq!(a.log.honeypots.len(), 3);
    }

    #[test]
    fn sharded_runs_are_independent_of_queue_kind() {
        let mut heap = three_hp_config(13);
        heap.queue = QueueKind::Heap;
        let mut cal = three_hp_config(13);
        cal.queue = QueueKind::Calendar;
        let mut wheel = three_hp_config(13);
        wheel.queue = QueueKind::Wheel;
        let a = run_sharded(heap);
        let b = run_sharded(cal);
        let c = run_sharded(wheel);
        assert_eq!(format!("{:?}", a.log), format!("{:?}", b.log));
        assert_eq!(format!("{:?}", a.log), format!("{:?}", c.log));
    }

    #[test]
    fn exec_mode_dispatch_reaches_sharding() {
        let mut c = three_hp_config(17);
        c.exec = ExecMode::Sharded;
        let via_dispatch = run_scenario(c.clone());
        let direct = run_sharded(c);
        assert_eq!(format!("{:?}", via_dispatch.log), format!("{:?}", direct.log));
    }

    #[test]
    fn single_lane_fallback_is_the_coupled_run() {
        let mut c = ScenarioConfig::tiny(23);
        c.exec = ExecMode::Sharded;
        let sharded = run_scenario(c.clone());
        c.exec = ExecMode::Coupled;
        let coupled = run_scenario(c);
        assert_eq!(
            format!("{:?}", sharded.log),
            format!("{:?}", coupled.log),
            "an unshardable scenario must fall back to the coupled engine unchanged"
        );
    }
}
