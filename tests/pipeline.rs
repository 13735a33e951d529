//! End-to-end integration tests of the full pipeline: simulated eDonkey
//! world → honeypot platform → manager merge/anonymisation → analysis.

use edonkey_honeypots::analysis::{basic_stats, subset_curve, LogIndex};
use edonkey_honeypots::experiments::{Measurement, Options};
use edonkey_honeypots::platform::QueryKind;
use edonkey_honeypots::sim::{run_scenario, ScenarioConfig};

fn small_opts(seed: u64) -> Options {
    Options { scale: 0.02, seed, samples: 25, json: false, ..Default::default() }
}

#[test]
fn distributed_pipeline_end_to_end() {
    let log = small_opts(11).run(Measurement::Distributed);
    assert!(log.validate().is_empty(), "{:?}", log.validate());

    let stats = basic_stats(&log);
    assert_eq!(stats.honeypots, 24);
    assert_eq!(stats.shared_files, 4);
    assert!(stats.distinct_peers > 200, "too few peers: {}", stats.distinct_peers);
    assert!(stats.distinct_files > 50, "shared lists must surface files");
    assert!(stats.distinct_files_bytes > 0);

    // Growth must be roughly linear: every day discovers new peers.
    let growth = LogIndex::build(&log).peer_growth();
    assert_eq!(growth.cumulative.len(), 32);
    let active_days = growth.new_per_day.iter().filter(|&&n| n > 0).count();
    assert!(active_days >= 30, "peer discovery must continue: {active_days} active days");
}

#[test]
fn strategy_gap_matches_paper_ordering() {
    let ix = LogIndex::build(&small_opts(12).run(Measurement::Distributed));
    // Paper §IV-B: random content sees at least as many distinct peers and
    // strictly more REQUEST-PARTs.
    let hello = ix.distinct_peers_by_strategy(QueryKind::Hello);
    let (rc, nc) = hello.finals();
    assert!(
        rc as f64 >= nc as f64 * 0.95,
        "random-content HELLO peers must not lose clearly: rc={rc} nc={nc}"
    );
    let parts = ix.messages_by_strategy(QueryKind::RequestPart);
    let (rc_p, nc_p) = parts.finals();
    assert!(rc_p > nc_p, "random content must attract more part requests: {rc_p} vs {nc_p}");
}

#[test]
fn honeypot_subset_curve_shows_diminishing_returns() {
    let log = small_opts(13).run(Measurement::Distributed);
    let ix = LogIndex::build(&log);
    let sets = ix.honeypot_peer_sets();
    assert_eq!(sets.len(), 24);
    let curve = subset_curve(sets, 25, 99);
    // Monotone growth with diminishing marginal benefit between the first
    // and last steps (paper Fig. 10).
    for w in curve.windows(2) {
        assert!(w[1].avg >= w[0].avg, "union must be monotone");
    }
    let first_gain = curve[1].avg - curve[0].avg;
    let last_gain = curve[23].avg - curve[22].avg;
    assert!(
        last_gain < first_gain,
        "marginal honeypot benefit must shrink: first {first_gain}, last {last_gain}"
    );
    assert!(curve[23].avg > curve[0].avg * 2.0, "24 honeypots see much more than one");
    // Union of all honeypots equals the measurement's distinct peers.
    assert_eq!(curve[23].max, u64::from(log.distinct_peers));
}

#[test]
fn greedy_pipeline_adopts_and_freezes() {
    // The greedy bootstrap is a positive-feedback loop (adopted files
    // attract the peers that carry more files); below ~5 % scale the
    // feedback is too weak for the day-1 dip to be visible, so this test
    // runs a bit bigger than the others.
    let log = Options { scale: 0.05, ..small_opts(14) }.run(Measurement::Greedy);
    assert!(log.validate().is_empty());
    let stats = basic_stats(&log);
    assert!(stats.shared_files > 10, "greedy must adopt files on day 1: {}", stats.shared_files);
    // Day-1 initialisation: far fewer peers on day 0 than later (Fig. 3).
    let growth = LogIndex::build(&log).peer_growth();
    let day0 = growth.new_per_day[0] as f64;
    let later: f64 = growth.new_per_day[2..8].iter().sum::<u64>() as f64 / 6.0;
    assert!(day0 < later * 0.6, "day-1 dip expected: day0 {day0}, later average {later}");
}

#[test]
fn same_seed_same_measurement() {
    let a = run_scenario(ScenarioConfig::tiny(77));
    let b = run_scenario(ScenarioConfig::tiny(77));
    assert_eq!(a.log.records.len(), b.log.records.len());
    assert_eq!(a.log.distinct_peers, b.log.distinct_peers);
    assert_eq!(a.log.files.len(), b.log.files.len());
    for (x, y) in a.log.records.iter().zip(&b.log.records) {
        assert_eq!(x, y);
    }
}

#[test]
fn anonymisation_holds_across_pipeline() {
    let out = run_scenario(ScenarioConfig::tiny(31));
    let log = out.log;
    // Peer identifiers are dense small integers assigned in first-seen
    // order: the sequence of first occurrences must be exactly 0, 1, 2, …
    // within the merge order (records are honeypot-major, matching the
    // manager's collection order).
    let mut seen = std::collections::HashSet::new();
    let mut firsts = Vec::new();
    for r in &log.records {
        if seen.insert(r.peer.0) {
            firsts.push(r.peer.0);
        }
    }
    for l in &log.shared_lists {
        if seen.insert(l.peer.0) {
            firsts.push(l.peer.0);
        }
    }
    assert_eq!(seen.len() as u32, log.distinct_peers);
    // Every id below the count appears exactly once among firsts.
    let mut sorted = firsts.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, (0..log.distinct_peers).collect::<Vec<_>>(), "ids must be dense");
    // File names passed word anonymisation: the rare per-file rank tokens
    // (five-digit numbers in generated names) must be gone or replaced.
    assert!(!log.files.is_empty());
}
