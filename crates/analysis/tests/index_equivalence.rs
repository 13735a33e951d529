//! The index-correctness guarantee: every figure statistic [`LogIndex`]
//! serves equals the one a direct scan of the records computes.  The scans
//! below are the per-figure functions the index replaced, kept here — and
//! only here — as its oracle.  Together with `sim/tests/determinism.rs`
//! this pins both axes: same log whatever the queue, same figures whatever
//! computes them.

use std::collections::HashMap;

use edonkey_analysis::testutil::synthetic_log_with_files;
use edonkey_analysis::{
    HourlySeries, IndexBuilder, LogIndex, PeerGrowth, PeerSet, StrategyComparison,
};
use honeypot::log::FILE_NONE;
use honeypot::{
    AnonPeerId, AnonSharedList, ContentStrategy, HoneypotId, MeasurementLog, QueryKind,
};
use netsim::metrics::{BucketSeries, FirstSeen};
use netsim::time::{MS_PER_DAY, MS_PER_HOUR};
use netsim::{Rng, SimTime};

/// Record times fall on a minute grid.
const MINUTE: u64 = 60_000;

const KINDS: [QueryKind; 3] = [QueryKind::Hello, QueryKind::StartUpload, QueryKind::RequestPart];

// ---- the oracle: one direct scan per statistic ----

fn days_of(log: &MeasurementLog) -> usize {
    log.duration.as_millis().div_ceil(MS_PER_DAY).max(1) as usize
}

fn growth_of<K: Eq + std::hash::Hash>(first: &FirstSeen<K>, days: usize) -> PeerGrowth {
    let new_per_day = first.new_per_bucket(MS_PER_DAY, days);
    PeerGrowth { cumulative: first.cumulative_per_bucket(MS_PER_DAY, days), new_per_day }
}

fn peer_growth_filtered(log: &MeasurementLog, kind: Option<QueryKind>) -> PeerGrowth {
    let mut first: FirstSeen<AnonPeerId> = FirstSeen::new();
    for r in log.records.iter().filter(|r| kind.is_none_or(|k| r.kind() == k)) {
        first.observe(r.peer, r.at());
    }
    growth_of(&first, days_of(log))
}

fn file_growth(log: &MeasurementLog) -> PeerGrowth {
    let mut first: FirstSeen<u32> = FirstSeen::new();
    for r in log.records.iter().filter(|r| r.file != FILE_NONE) {
        first.observe(r.file, r.at());
    }
    for l in &log.shared_lists {
        for &f in &l.files {
            first.observe(f, l.at);
        }
    }
    growth_of(&first, days_of(log))
}

fn hourly_counts(log: &MeasurementLog, kind: QueryKind) -> HourlySeries {
    let mut series = BucketSeries::hourly();
    for r in log.records_of(kind) {
        series.record(r.at());
    }
    let hours = log.duration.as_millis().div_ceil(MS_PER_HOUR).max(1) as usize;
    HourlySeries { counts: series.to_vec(hours) }
}

fn first_event_ms(log: &MeasurementLog, kind: QueryKind) -> Option<u64> {
    log.records_of(kind).map(|r| r.at().as_millis()).min()
}

fn is_random_content(log: &MeasurementLog, hp: u16) -> bool {
    log.honeypots[hp as usize].content == ContentStrategy::RandomContent
}

fn distinct_peers_by_strategy(log: &MeasurementLog, kind: QueryKind) -> StrategyComparison {
    let mut rc: FirstSeen<AnonPeerId> = FirstSeen::new();
    let mut nc: FirstSeen<AnonPeerId> = FirstSeen::new();
    for r in log.records_of(kind) {
        let group = if is_random_content(log, r.honeypot()) { &mut rc } else { &mut nc };
        group.observe(r.peer, r.at());
    }
    let days = days_of(log);
    StrategyComparison {
        random_content: rc.cumulative_per_bucket(MS_PER_DAY, days),
        no_content: nc.cumulative_per_bucket(MS_PER_DAY, days),
    }
}

/// Cumulative per-day messages of `kind` per group, from the peers `from`
/// accepts (Fig. 7 with every peer, Figs. 8–9 with one).
fn messages_by_strategy(
    log: &MeasurementLog,
    kind: QueryKind,
    from: impl Fn(AnonPeerId) -> bool,
) -> StrategyComparison {
    let mut rc = BucketSeries::daily();
    let mut nc = BucketSeries::daily();
    for r in log.records_of(kind).filter(|r| from(r.peer)) {
        let group = if is_random_content(log, r.honeypot()) { &mut rc } else { &mut nc };
        group.record(r.at());
    }
    let days = days_of(log);
    StrategyComparison { random_content: rc.cumulative(days), no_content: nc.cumulative(days) }
}

fn top_peer(log: &MeasurementLog, kind: QueryKind) -> Option<AnonPeerId> {
    let mut counts: HashMap<AnonPeerId, u64> = HashMap::new();
    for r in log.records_of(kind) {
        *counts.entry(r.peer).or_insert(0) += 1;
    }
    counts
        .into_iter()
        .max_by_key(|&(peer, count)| (count, std::cmp::Reverse(peer.0)))
        .map(|(peer, _)| peer)
}

fn peer_series(log: &MeasurementLog, peer: AnonPeerId, kind: QueryKind) -> StrategyComparison {
    messages_by_strategy(log, kind, |p| p == peer)
}

fn peer_sets_by_honeypot(log: &MeasurementLog) -> Vec<PeerSet> {
    let mut members: Vec<Vec<u32>> = vec![Vec::new(); log.honeypots.len()];
    for r in &log.records {
        members[r.honeypot() as usize].push(r.peer.0);
    }
    members.into_iter().map(PeerSet::from_members).collect()
}

fn peer_sets_by_file(log: &MeasurementLog) -> Vec<(u32, PeerSet)> {
    let mut by_file: HashMap<u32, Vec<u32>> = HashMap::new();
    for r in log.records_of(QueryKind::StartUpload).filter(|r| r.file != FILE_NONE) {
        by_file.entry(r.file).or_default().push(r.peer.0);
    }
    let mut out: Vec<(u32, PeerSet)> =
        by_file.into_iter().map(|(f, peers)| (f, PeerSet::from_members(peers))).collect();
    out.sort_by_key(|(f, _)| *f);
    out
}

// ---- fixtures ----

/// A random three-day log: `0..=2,000` records over `1..=60` peers and
/// `2..=6` honeypots (alternating strategies), 3 files, up to 12 shared
/// lists.  Times are on the [`MINUTE`] grid, so day and hour edges are hit.
fn random_log(seed: u64) -> MeasurementLog {
    let mut rng = Rng::seed_from(seed);
    let records = rng.below(2_001);
    let peers = 1 + rng.below(60);
    let honeypots = 2 + rng.below(5);
    let mut entries = Vec::new();
    for _ in 0..records {
        let peer = rng.below(peers) as u32;
        let kind = KINDS[rng.below(3) as usize];
        let hp = rng.below(honeypots) as u32;
        let at = SimTime(rng.below(3 * 24 * 60) * MINUTE);
        let file = if kind == QueryKind::Hello { FILE_NONE } else { rng.below(3) as u32 };
        entries.push((peer, kind, hp, at, file));
    }
    let mut log = synthetic_log_with_files(&entries);
    for _ in 0..rng.below(13) {
        let files = (0..=rng.below(3) as u32).collect();
        log.shared_lists.push(AnonSharedList {
            at: SimTime(rng.below(3 * 24 * 60) * MINUTE),
            honeypot: HoneypotId(rng.below(log.honeypots.len() as u64) as u32),
            peer: AnonPeerId(rng.below(u64::from(log.distinct_peers.max(1))) as u32),
            files,
        });
    }
    log
}

fn su(peer: u32, hp: u32, at: SimTime) -> (u32, QueryKind, u32, SimTime, u32) {
    (peer, QueryKind::StartUpload, hp, at, 0)
}

/// The cases a random log may miss, each with the property it pins.
fn forced_logs() -> Vec<(&'static str, MeasurementLog)> {
    let h = SimTime::from_hours;
    let day = |k: u64| SimTime(k * MS_PER_DAY);
    vec![
        ("empty log", synthetic_log_with_files(&[])),
        (
            // Peer 2 appears first, peer 1 ties it: the smaller id wins.
            "tied top peers",
            synthetic_log_with_files(&[
                su(2, 0, h(1)),
                su(2, 1, h(30)),
                su(1, 1, h(2)),
                su(1, 0, h(50)),
                (1, QueryKind::RequestPart, 1, h(3), 0),
                (2, QueryKind::RequestPart, 0, h(4), 0),
                (0, QueryKind::Hello, 0, h(5), FILE_NONE),
            ]),
        ),
        (
            "top peer without REQUEST-PART",
            synthetic_log_with_files(&[
                su(0, 1, h(1)),
                su(0, 0, h(26)),
                (1, QueryKind::RequestPart, 1, h(2), 1),
                (1, QueryKind::Hello, 0, h(2), FILE_NONE),
            ]),
        ),
        (
            // Every record sits on a day boundary, the last one just past
            // the measurement's end.
            "records at k × MS_PER_DAY",
            synthetic_log_with_files(&[
                su(0, 0, day(0)),
                su(0, 1, day(1)),
                (1, QueryKind::Hello, 1, day(1), FILE_NONE),
                (0, QueryKind::RequestPart, 0, day(2), 2),
                su(1, 1, day(2)),
                (1, QueryKind::RequestPart, 1, day(3), 1),
            ]),
        ),
    ]
}

// ---- comparisons ----

fn assert_growth_eq(a: &PeerGrowth, b: &PeerGrowth, what: &str) {
    assert_eq!(a.cumulative, b.cumulative, "{what}: cumulative");
    assert_eq!(a.new_per_day, b.new_per_day, "{what}: new_per_day");
}

fn assert_cmp_eq(a: &StrategyComparison, b: &StrategyComparison, what: &str) {
    assert_eq!(a.random_content, b.random_content, "{what}: random_content");
    assert_eq!(a.no_content, b.no_content, "{what}: no_content");
}

/// The Figs. 8–9 series: the top START-UPLOAD peer's, for every kind.
fn assert_top_series_eq(ix: &LogIndex, log: &MeasurementLog, case: &str) {
    let top = top_peer(log, QueryKind::StartUpload);
    for kind in KINDS {
        match (ix.top_peer_series(kind), top) {
            (None, None) => {}
            (Some((peer, series)), Some(top)) => {
                assert_eq!(peer, top, "{case}: top peer");
                assert_cmp_eq(&series, &peer_series(log, top, kind), case);
            }
            (got, want) => {
                panic!("{case}: top_peer_series {:?} vs oracle {want:?}", got.map(|g| g.0))
            }
        }
    }
}

/// Every statistic the index serves against its scan.
fn assert_index_matches_scans(ix: &LogIndex, log: &MeasurementLog, case: &str) {
    // Figs. 2–3 + Table I growth.
    assert_growth_eq(&ix.peer_growth(), &peer_growth_filtered(log, None), case);
    assert_growth_eq(&ix.file_growth(), &file_growth(log), case);
    for kind in KINDS {
        assert_growth_eq(
            &ix.peer_growth_filtered(Some(kind)),
            &peer_growth_filtered(log, Some(kind)),
            case,
        );
        // Figs. 4–9.
        assert_eq!(ix.hourly_counts(kind).counts, hourly_counts(log, kind).counts, "{case}");
        assert_eq!(ix.first_event_ms(kind), first_event_ms(log, kind), "{case}");
        assert_cmp_eq(
            &ix.distinct_peers_by_strategy(kind),
            &distinct_peers_by_strategy(log, kind),
            case,
        );
        assert_cmp_eq(
            &ix.messages_by_strategy(kind),
            &messages_by_strategy(log, kind, |_| true),
            case,
        );
        assert_eq!(ix.top_peer(kind), top_peer(log, kind), "{case}: top_peer");
    }
    assert_top_series_eq(ix, log, case);

    // Figs. 10–12 input sets.
    assert_eq!(ix.honeypot_peer_sets(), peer_sets_by_honeypot(log), "{case}: honeypot peer sets");
    assert_eq!(ix.file_peer_sets(), peer_sets_by_file(log), "{case}: file peer sets");

    // The runner's self-check.
    assert_eq!(ix.recount_distinct_peers(), peer_growth_filtered(log, None).total(), "{case}");
}

#[test]
fn indexed_figures_equal_direct_scans() {
    for (case, log) in forced_logs() {
        assert_index_matches_scans(&LogIndex::build(&log), &log, case);
    }
    for seed in 0..64u64 {
        let log = random_log(seed);
        assert_index_matches_scans(&LogIndex::build(&log), &log, &format!("seed {seed}"));
    }
}

/// What the forced cases are there for, beyond agreeing with the scans.
#[test]
fn forced_cases_show_the_top_peer_rules() {
    let logs: HashMap<&str, MeasurementLog> = forced_logs().into_iter().collect();
    let ix = LogIndex::build(&logs["empty log"]);
    assert!(ix.top_peer_series(QueryKind::StartUpload).is_none());
    let ix = LogIndex::build(&logs["tied top peers"]);
    let (peer, series) = ix.top_peer_series(QueryKind::StartUpload).unwrap();
    assert_eq!((peer, series.finals()), (AnonPeerId(1), (1, 1)), "smaller id wins the tie");
    let ix = LogIndex::build(&logs["top peer without REQUEST-PART"]);
    let (peer, parts) = ix.top_peer_series(QueryKind::RequestPart).unwrap();
    assert_eq!((peer, parts.finals()), (AnonPeerId(0), (0, 0)));
    assert_eq!(parts.random_content.len(), 3, "a silent series still spans the measurement");
    let ix = LogIndex::build(&logs["records at k × MS_PER_DAY"]);
    let (_, series) = ix.top_peer_series(QueryKind::StartUpload).unwrap();
    assert_eq!(series.no_content, vec![1, 1, 1], "day 0 record lands in bucket 0");
    assert_eq!(series.random_content, vec![0, 1, 1], "day 1 record lands in bucket 1");
    assert_eq!(ix.messages_by_strategy(QueryKind::RequestPart).random_content.len(), 4);
}

#[test]
fn streaming_builder_matches_one_shot_build_for_any_chunking() {
    let log = random_log(29);
    let reference = LogIndex::build(&log);
    // Feed the same records in several different partitions — including
    // one record at a time and ragged prime-sized chunks — interleaving
    // shared lists mid-stream.  Chunking must be invisible.
    for chunk in [1usize, 7, 113, log.records.len().max(1)] {
        let mut b = IndexBuilder::for_log(&log);
        let mut lists = log.shared_lists.iter();
        for records in log.records.chunks(chunk) {
            b.push_records(records);
            if let Some(l) = lists.next() {
                b.push_shared_list(l.at, &l.files);
            }
        }
        for l in lists {
            b.push_shared_list(l.at, &l.files);
        }
        let ix = b.finish(&log.records);
        let case = format!("chunk size {chunk}");
        assert_growth_eq(&ix.peer_growth(), &reference.peer_growth(), &case);
        assert_growth_eq(&ix.file_growth(), &reference.file_growth(), &case);
        for kind in KINDS {
            assert_eq!(ix.hourly_counts(kind).counts, reference.hourly_counts(kind).counts);
            assert_eq!(ix.top_peer(kind), reference.top_peer(kind));
            assert_eq!(ix.first_event_ms(kind), reference.first_event_ms(kind));
        }
        assert_top_series_eq(&ix, &log, &case);
        assert_eq!(
            ix.honeypot_peer_sets(),
            reference.honeypot_peer_sets(),
            "sets must be identical under {case}"
        );
        assert_eq!(ix.file_peer_sets(), reference.file_peer_sets(), "{case}");
    }
}

#[test]
fn file_sets_are_sorted_distinct_and_independent_of_record_order() {
    for seed in 0..16u64 {
        let log = random_log(seed);
        let reference = LogIndex::build(&log);
        for (_, set) in reference.file_peer_sets() {
            assert!(set.count() > 0, "seed {seed}: a listed file has a START-UPLOAD peer");
            assert!(set.members().windows(2).all(|w| w[0] < w[1]), "seed {seed}: {set:?}");
        }
        // The same records shuffled, pushed in ragged chunks.
        let mut records = log.records.clone();
        Rng::seed_from(seed).shuffle(&mut records);
        for chunk in [1usize, 5, 64] {
            let mut b = IndexBuilder::for_log(&log);
            for part in records.chunks(chunk) {
                b.push_records(part);
            }
            let ix = b.finish(&records);
            let case = format!("seed {seed}, shuffled, chunk size {chunk}");
            assert_eq!(ix.file_peer_sets(), reference.file_peer_sets(), "{case}");
            assert_eq!(ix.honeypot_peer_sets(), reference.honeypot_peer_sets(), "{case}");
        }
    }
}
