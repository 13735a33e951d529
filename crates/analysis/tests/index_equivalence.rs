//! The index-correctness guarantee: every figure derived from
//! [`LogIndex`] equals the one computed by the original direct scan, and
//! the index itself is a pure function of the log regardless of how many
//! workers build it.  Together with `sim/tests/determinism.rs` this
//! pins both axes of the hot-path overhaul: same log whatever the queue,
//! same figures whatever the path that computes them.

use edonkey_analysis::testutil::synthetic_log_with_files;
use edonkey_analysis::{
    distinct, strategy, subset, table, timeseries, toppeer, IndexBuilder, LogIndex,
};
use honeypot::log::FILE_NONE;
use honeypot::{AnonPeerId, AnonSharedList, HoneypotId, MeasurementLog, QueryKind};
use netsim::{Rng, SimTime};

const KINDS: [QueryKind; 3] = [QueryKind::Hello, QueryKind::StartUpload, QueryKind::RequestPart];

/// A dense, deterministic three-day log: 600 records over 40 peers, 4
/// honeypots (2 per strategy), 3 files, plus a handful of shared lists.
fn busy_log(seed: u64) -> MeasurementLog {
    let mut rng = Rng::seed_from(seed);
    let mut entries = Vec::new();
    for _ in 0..600 {
        let peer = rng.below(40) as u32;
        let kind = KINDS[rng.below(3) as usize];
        let hp = rng.below(4) as u32;
        let at = SimTime(rng.below(3 * 24 * 60) * 60_000); // minute grid, 3 days
        let file = if kind == QueryKind::Hello { FILE_NONE } else { rng.below(3) as u32 };
        entries.push((peer, kind, hp, at, file));
    }
    let mut log = synthetic_log_with_files(&entries);
    for i in 0..10u64 {
        log.shared_lists.push(AnonSharedList {
            at: SimTime(rng.below(3 * 24 * 60) * 60_000),
            honeypot: HoneypotId(rng.below(4) as u32),
            peer: AnonPeerId(rng.below(40) as u32),
            files: (0..=(i % 3) as u32).collect(),
        });
    }
    log
}

fn assert_growth_eq(a: &distinct::PeerGrowth, b: &distinct::PeerGrowth, what: &str) {
    assert_eq!(a.cumulative, b.cumulative, "{what}: cumulative");
    assert_eq!(a.new_per_day, b.new_per_day, "{what}: new_per_day");
}

fn assert_cmp_eq(a: &strategy::StrategyComparison, b: &strategy::StrategyComparison, what: &str) {
    assert_eq!(a.random_content, b.random_content, "{what}: random_content");
    assert_eq!(a.no_content, b.no_content, "{what}: no_content");
}

#[test]
fn indexed_figures_equal_direct_scans() {
    for seed in [3u64, 0xED0_2009] {
        let log = busy_log(seed);
        let ix = LogIndex::build(&log);

        // Figs. 2–3 + Table I growth.
        assert_growth_eq(&ix.peer_growth(), &distinct::peer_growth(&log), "peer_growth");
        for kind in KINDS {
            assert_growth_eq(
                &ix.peer_growth_filtered(Some(kind)),
                &distinct::peer_growth_filtered(&log, Some(kind)),
                "peer_growth_filtered",
            );
        }
        assert_growth_eq(&ix.file_growth(), &distinct::file_growth(&log), "file_growth");

        // Figs. 4–9.
        for kind in KINDS {
            assert_eq!(
                ix.hourly_counts(kind).counts,
                timeseries::hourly_counts(&log, kind).counts,
                "hourly_counts"
            );
            assert_eq!(ix.first_event_ms(kind), timeseries::first_event_ms(&log, kind));
            assert_cmp_eq(
                &ix.distinct_peers_by_strategy(kind),
                &strategy::distinct_peers_by_strategy(&log, kind),
                "distinct_peers_by_strategy",
            );
            assert_cmp_eq(
                &ix.messages_by_strategy(kind),
                &strategy::messages_by_strategy(&log, kind),
                "messages_by_strategy",
            );
            assert_eq!(ix.top_peer(kind), toppeer::top_peer(&log, kind), "top_peer");
        }
        assert_eq!(
            format!("{:?}", toppeer::top_peer_summary_indexed(&log, &ix)),
            format!("{:?}", toppeer::top_peer_summary(&log)),
            "top_peer_summary"
        );

        // Figs. 10–12 input bitsets (PeerSet has no PartialEq; the Debug
        // rendering covers the exact words).
        assert_eq!(
            format!("{:?}", ix.honeypot_peer_sets()),
            format!("{:?}", subset::peer_sets_by_honeypot(&log)),
            "honeypot peer sets"
        );
        assert_eq!(
            format!("{:?}", ix.file_peer_sets()),
            format!("{:?}", subset::peer_sets_by_file(&log)),
            "file peer sets"
        );

        // The runner's self-check.
        assert_eq!(ix.recount_distinct_peers(), table::recount_distinct_peers(&log));
    }
}

#[test]
fn streaming_builder_matches_one_shot_build_for_any_chunking() {
    let log = busy_log(29);
    let reference = LogIndex::build(&log);
    // Feed the same records in several different partitions — including
    // one record at a time and ragged prime-sized chunks — interleaving
    // shared lists mid-stream.  Chunking must be invisible.
    for chunk in [1usize, 7, 113, log.records.len()] {
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
        let ix = b.finish();
        assert_growth_eq(&ix.peer_growth(), &reference.peer_growth(), "peer_growth");
        assert_growth_eq(&ix.file_growth(), &reference.file_growth(), "file_growth");
        for kind in KINDS {
            assert_eq!(ix.hourly_counts(kind).counts, reference.hourly_counts(kind).counts);
            assert_eq!(ix.top_peer(kind), reference.top_peer(kind));
            assert_eq!(ix.first_event_ms(kind), reference.first_event_ms(kind));
        }
        assert_eq!(
            format!("{:?}", ix.honeypot_peer_sets()),
            format!("{:?}", reference.honeypot_peer_sets()),
            "bitsets must be identical under chunk size {chunk}"
        );
        assert_eq!(
            format!("{:?}", ix.file_peer_sets()),
            format!("{:?}", reference.file_peer_sets()),
        );
    }
}

#[test]
fn absorbing_split_builders_matches_one_builder() {
    let log = busy_log(31);
    let reference = LogIndex::build_sequential(&log);
    let mid = log.records.len() / 2;
    let mut a = IndexBuilder::for_log(&log);
    a.push_records(&log.records[..mid]);
    let mut b = IndexBuilder::for_log(&log);
    b.push_records(&log.records[mid..]);
    for l in &log.shared_lists {
        b.push_shared_list(l.at, &l.files);
    }
    a.absorb(b);
    let ix = a.finish();
    assert_growth_eq(&ix.peer_growth(), &reference.peer_growth(), "peer_growth");
    assert_growth_eq(&ix.file_growth(), &reference.file_growth(), "file_growth");
    assert_eq!(
        format!("{:?}", ix.honeypot_peer_sets()),
        format!("{:?}", reference.honeypot_peer_sets()),
    );
}

#[test]
fn index_is_thread_count_independent() {
    let log = busy_log(11);
    let reference = LogIndex::build_sequential(&log);
    for threads in [1usize, 2, 8] {
        // Force the chunked path: build() would auto-select sequential for
        // a log this small, and the property under test is that the
        // *parallel* build is schedule-independent.
        let ix = netsim::par::with_workers(threads, || LogIndex::build_parallel(&log));
        assert_growth_eq(&ix.peer_growth(), &reference.peer_growth(), "peer_growth");
        assert_growth_eq(&ix.file_growth(), &reference.file_growth(), "file_growth");
        for kind in KINDS {
            assert_eq!(ix.hourly_counts(kind).counts, reference.hourly_counts(kind).counts);
            assert_eq!(ix.top_peer(kind), reference.top_peer(kind));
        }
        assert_eq!(
            format!("{:?}", ix.honeypot_peer_sets()),
            format!("{:?}", reference.honeypot_peer_sets()),
            "bitsets must be identical under {threads} threads"
        );
        assert_eq!(
            format!("{:?}", ix.file_peer_sets()),
            format!("{:?}", reference.file_peer_sets()),
        );
    }
}
