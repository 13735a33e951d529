//! Shape assertions: the qualitative claims of every paper figure, checked
//! on scaled-down runs.  These are the repository's "does the reproduction
//! reproduce?" tests — magnitudes shrink with `--scale`, shapes must not.

use edonkey_honeypots::analysis::{
    file_peer_counts, popular_files, random_files, subset_curve, LogIndex,
};
use edonkey_honeypots::experiments::{Measurement, Options};
use edonkey_honeypots::platform::{MeasurementLog, QueryKind};

fn distributed() -> MeasurementLog {
    Options { scale: 0.02, seed: 40, samples: 20, json: false, ..Default::default() }
        .run(Measurement::Distributed)
}

fn greedy() -> MeasurementLog {
    Options { scale: 0.03, seed: 41, samples: 20, json: false, ..Default::default() }
        .run(Measurement::Greedy)
}

#[test]
fn fig02_shape_linear_growth_without_saturation() {
    let g = LogIndex::build(&distributed()).peer_growth();
    let total = g.total() as f64;
    // Still discovering at the end (paper: >2,500/day after a month).
    assert!(g.tail_rate(5) > 0.01 * total, "discovery stalled: {:?}", g.new_per_day);
    // Roughly linear: the second half contributes a substantial share.
    let half = g.cumulative[15] as f64;
    assert!(half < 0.75 * total, "growth saturated early: half {half}, total {total}");
}

#[test]
fn fig04_shape_day_night_oscillation_and_fast_first_query() {
    let ix = LogIndex::build(&distributed());
    let hourly = ix.hourly_counts(QueryKind::Hello);
    assert!(
        hourly.day_night_ratio() > 2.0,
        "day/night oscillation missing: ratio {}",
        hourly.day_night_ratio()
    );
    let first = ix.first_event_ms(QueryKind::Hello).expect("some HELLO");
    assert!(
        first < 60 * 60 * 1_000,
        "first query must arrive within the first hour (paper: 10 min), got {first} ms"
    );
}

#[test]
fn fig08_09_shape_top_peer_dominates_and_prefers_random_content() {
    let ix = LogIndex::build(&distributed());
    let (_, series) = ix.top_peer_series(QueryKind::StartUpload).expect("some top peer");
    let (rc, nc) = series.finals();
    // The robot sweeps both groups; pacing favours random content
    // (paper Fig. 8) — allow slack at small scale.
    assert!(rc + nc > 50, "top peer must be a heavy querier: {rc}+{nc}");
    assert!(
        rc as f64 > 0.8 * nc as f64,
        "random content must not pace behind silence: rc={rc}, nc={nc}"
    );
    let (_, parts) = ix.top_peer_series(QueryKind::RequestPart).expect("some top peer");
    let (rc_p, nc_p) = parts.finals();
    assert!(rc_p > nc_p, "REQUEST-PART pacing must favour random content: {rc_p} vs {nc_p}");
}

#[test]
fn fig10_shape_overlap_makes_each_added_honeypot_worth_less() {
    // One peer contacts several honeypots (a provider subset), so the
    // honeypots' peer sets overlap and each added honeypot brings fewer new
    // peers — but never none (paper Fig. 10).  Measured on this log at
    // seeds 40/1/2/3: the per-honeypot counts sum to 5.09–5.22× the union,
    // the 2nd honeypot adds ≈202 peers and the 24th ≈25 (7.8–8.3×), and the
    // largest single honeypot sees 2.0–2.3× the smallest (2.26× at seed 40).  Per-honeypot
    // lanes with no shared peers (the deleted sharded mode) read 1.00× and
    // 1.07× on the first two checks.
    let log = distributed();
    let ix = LogIndex::build(&log);
    let sets = ix.honeypot_peer_sets();
    assert_eq!(sets.len(), 24);
    let counts: Vec<u64> = sets.iter().map(|s| s.count()).collect();
    let sum: u64 = counts.iter().sum();
    let union = u64::from(log.distinct_peers);
    assert!(sum >= 3 * union, "honeypots must share peers: sum {sum}, union {union}");

    let curve = subset_curve(sets, 20, 1);
    let gain = |n: usize| curve[n - 1].avg - curve[n - 2].avg;
    let (second, last) = (gain(2), gain(24));
    assert!(second >= 4.0 * last, "returns must diminish: 2nd adds {second}, 24th adds {last}");
    assert!(last > 0.0, "the 24th honeypot must still add peers");

    let max = *counts.iter().max().unwrap();
    let min = *counts.iter().min().unwrap();
    assert!(
        max as f64 >= 1.5 * min as f64,
        "attractiveness must spread single-honeypot counts: {min}..{max}"
    );
}

#[test]
fn fig11_12_shape_popular_files_dominate_random_files() {
    let ix = LogIndex::build(&greedy());
    let sets = ix.file_peer_sets();
    assert!(sets.len() > 50, "greedy run must surface many queried files: {}", sets.len());
    let k = 30.min(sets.len());
    let rnd = random_files(sets, k, 9);
    let pop = popular_files(sets, k);
    let rnd_curve = subset_curve(&rnd, 20, 1);
    let pop_curve = subset_curve(&pop, 20, 1);
    let rnd_final = rnd_curve.last().unwrap().avg;
    let pop_final = pop_curve.last().unwrap().avg;
    assert!(
        pop_final > 1.5 * rnd_final,
        "popular files must attract clearly more peers: {pop_final} vs {rnd_final}"
    );
    // Per-file interest is heavy-tailed: best ≫ worst (paper: 13,373 vs 2).
    let counts = file_peer_counts(sets);
    let best = counts[0];
    let worst = *counts.last().unwrap();
    assert!(best >= 20 * worst.max(1), "per-file spread too flat: best {best}, worst {worst}");
    // Growth in the number of advertised files keeps paying off: the
    // random-files curve must not plateau.
    let mid = rnd_curve[k / 2].avg;
    assert!(rnd_final > 1.3 * mid, "file curve saturated: mid {mid}, final {rnd_final}");
}

#[test]
fn table1_shape_greedy_dwarfs_distributed_per_day() {
    // The greedy honeypot advertising thousands of files observes far more
    // peers per day than 24 honeypots advertising four files (Table I).
    let d = distributed();
    let g = greedy();
    let d_rate = f64::from(d.distinct_peers) / d.duration.as_days();
    let g_rate = f64::from(g.distinct_peers) / g.duration.as_days();
    // Scales differ (0.02 vs 0.03): normalise.  The greedy bootstrap is a
    // positive-feedback loop, so its advantage at a few percent scale is a
    // fraction of the full-scale ~8× (871k/15d vs 110k/32d); require a
    // clear win, not the full-scale factor.
    let d_rate = d_rate / 0.02;
    let g_rate = g_rate / 0.03;
    assert!(
        g_rate > 2.0 * d_rate,
        "greedy must dominate per-day discovery: {g_rate:.0} vs {d_rate:.0}"
    );
}
