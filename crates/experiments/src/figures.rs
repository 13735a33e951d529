//! One function per paper artefact: computes the figure's data from the
//! shared [`LogIndex`] (built once per measurement) and renders the
//! human-readable report (plus a JSON value for EXPERIMENTS.md).
//!
//! Only [`table1`] (O(1) header fields) and the top-peer series (a single
//! peer's records) still read the raw log.

use edonkey_analysis::report::{
    ascii_chart, ascii_table, format_bytes, format_count, series_table,
};
use edonkey_analysis::{
    basic_stats, file_peer_counts, peer_series, plateaus, popular_files, random_files,
    subset_curve, LogIndex, StrategyComparison, SubsetPoint,
};
use honeypot::{MeasurementLog, QueryKind};
use netsim::{json_object, Json};

/// A rendered experiment artefact.
pub struct Artefact {
    /// Human-readable report.
    pub text: String,
    /// Machine-readable data (written into EXPERIMENTS.md's JSON block).
    pub data: Json,
}

/// Table I: basic statistics of both measurements.
pub fn table1(dist: &MeasurementLog, greedy: &MeasurementLog) -> Artefact {
    let d = basic_stats(dist);
    let g = basic_stats(greedy);
    let rows = vec![
        vec!["Number of honeypots".into(), d.honeypots.to_string(), g.honeypots.to_string()],
        vec![
            "Duration in days".into(),
            format!("{:.0}", d.duration_days),
            format!("{:.0}", g.duration_days),
        ],
        vec![
            "Number of shared files".into(),
            format_count(u64::from(d.shared_files)),
            format_count(u64::from(g.shared_files)),
        ],
        vec![
            "Number of distinct peers".into(),
            format_count(u64::from(d.distinct_peers)),
            format_count(u64::from(g.distinct_peers)),
        ],
        vec![
            "Number of distinct files".into(),
            format_count(d.distinct_files as u64),
            format_count(g.distinct_files as u64),
        ],
        vec![
            "Space used by distinct files".into(),
            format_bytes(d.distinct_files_bytes),
            format_bytes(g.distinct_files_bytes),
        ],
    ];
    let text = format!(
        "Table I — basic statistics of the collected data\n{}",
        ascii_table(&["statistic", "distributed", "greedy"], &rows)
    );
    let data = json_object! {
        "distributed": json_object! {
            "honeypots": d.honeypots, "days": d.duration_days,
            "shared_files": d.shared_files, "distinct_peers": d.distinct_peers,
            "distinct_files": d.distinct_files, "space_tb": d.distinct_files_tb(),
        },
        "greedy": json_object! {
            "honeypots": g.honeypots, "days": g.duration_days,
            "shared_files": g.shared_files, "distinct_peers": g.distinct_peers,
            "distinct_files": g.distinct_files, "space_tb": g.distinct_files_tb(),
        },
    };
    Artefact { text, data }
}

/// Figs. 2 (distributed) and 3 (greedy): distinct-peer growth.
pub fn fig_growth(ix: &LogIndex, fig_no: u8) -> Artefact {
    let g = ix.peer_growth();
    let files = ix.file_growth();
    let days: Vec<u64> = (0..g.cumulative.len() as u64).collect();
    let chart = ascii_chart(
        &[("total peers", &g.cumulative.iter().map(|&v| v as f64).collect::<Vec<_>>()[..])],
        64,
        12,
    );
    let text = format!(
        "Fig. {fig_no} — distinct peers over time ({} total; {:.0} new/day over the last 5 days)\n{}\n{}",
        format_count(g.total()),
        g.tail_rate(5),
        series_table("day", &days, &[("total_peers", &g.cumulative), ("new_peers", &g.new_per_day)]),
        chart,
    );
    let data = json_object! {
        "total_peers": g.total(),
        "tail_new_per_day": g.tail_rate(5),
        "cumulative": g.cumulative,
        "new_per_day": g.new_per_day,
        "distinct_files_total": files.total(),
    };
    Artefact { text, data }
}

/// Fig. 4: HELLO messages per hour over the first week.
pub fn fig04(ix: &LogIndex) -> Artefact {
    let s = ix.hourly_counts(QueryKind::Hello);
    let week: Vec<u64> = s.counts.iter().copied().take(168).collect();
    let first_ms = ix.first_event_ms(QueryKind::Hello).unwrap_or(0);
    let ratio = edonkey_analysis::HourlySeries { counts: week.clone() }.day_night_ratio();
    let chart = ascii_chart(
        &[("HELLO/hour", &week.iter().map(|&v| v as f64).collect::<Vec<_>>()[..])],
        84,
        14,
    );
    let hours: Vec<u64> = (0..week.len() as u64).collect();
    let text = format!(
        "Fig. 4 — HELLO messages per hour, first week (first query after {:.1} min; day/night ratio {:.1}×)\n{}\n{}",
        first_ms as f64 / 60_000.0,
        ratio,
        chart,
        series_table("hour", &hours, &[("hello", &week)]),
    );
    let data = json_object! {
        "first_query_min": first_ms as f64 / 60_000.0,
        "day_night_ratio": ratio,
        "hourly_first_week": week,
    };
    Artefact { text, data }
}

/// `extra` holds the figure's own entries of the data object.
fn strategy_artefact(
    title: String,
    c: &StrategyComparison,
    extra: Vec<(&'static str, Json)>,
) -> Artefact {
    let days: Vec<u64> = (0..c.random_content.len() as u64).collect();
    let (rc, nc) = c.finals();
    let chart = ascii_chart(
        &[
            ("random content", &c.random_content.iter().map(|&v| v as f64).collect::<Vec<_>>()[..]),
            ("no content", &c.no_content.iter().map(|&v| v as f64).collect::<Vec<_>>()[..]),
        ],
        64,
        12,
    );
    let text = format!(
        "{title}\n  random content: {}   no content: {}   (random/no = {:.2})\n{}\n{}",
        format_count(rc),
        format_count(nc),
        rc as f64 / nc.max(1) as f64,
        series_table(
            "day",
            &days,
            &[("random_content", &c.random_content), ("no_content", &c.no_content)]
        ),
        chart,
    );
    let shared = [
        ("random_content", Json::from(c.random_content.as_slice())),
        ("no_content", Json::from(c.no_content.as_slice())),
        ("final_random", Json::from(rc)),
        ("final_no", Json::from(nc)),
    ];
    Artefact { text, data: Json::object(shared.into_iter().chain(extra)) }
}

/// Fig. 5: distinct peers sending HELLO per strategy group.
pub fn fig05(ix: &LogIndex) -> Artefact {
    let c = ix.distinct_peers_by_strategy(QueryKind::Hello);
    strategy_artefact(
        "Fig. 5 — distinct peers sending HELLO, by content strategy".into(),
        &c,
        Vec::new(),
    )
}

/// Fig. 6: distinct peers sending START-UPLOAD per strategy group.
pub fn fig06(ix: &LogIndex) -> Artefact {
    let c = ix.distinct_peers_by_strategy(QueryKind::StartUpload);
    strategy_artefact(
        "Fig. 6 — distinct peers sending START-UPLOAD, by content strategy".into(),
        &c,
        Vec::new(),
    )
}

/// Fig. 7: cumulative REQUEST-PART messages per strategy group.
pub fn fig07(ix: &LogIndex) -> Artefact {
    let c = ix.messages_by_strategy(QueryKind::RequestPart);
    strategy_artefact(
        "Fig. 7 — REQUEST-PART messages received, by content strategy".into(),
        &c,
        Vec::new(),
    )
}

/// Figs. 8 and 9: the top peer's START-UPLOAD / REQUEST-PART series.
/// The top-peer search reads the index; the single-peer series scans the
/// log (one peer's records only).
pub fn fig_top_peer(log: &MeasurementLog, ix: &LogIndex, fig_no: u8) -> Artefact {
    let kind = if fig_no == 8 { QueryKind::StartUpload } else { QueryKind::RequestPart };
    let Some(peer) = ix.top_peer(QueryKind::StartUpload) else {
        return Artefact {
            text: format!("Fig. {fig_no} — no queries recorded"), data: Json::Null
        };
    };
    let c = peer_series(log, peer, kind);
    let flat_rc = plateaus(&c.random_content, 2);
    let flat_nc = plateaus(&c.no_content, 2);
    let mut artefact = strategy_artefact(
        format!(
            "Fig. {fig_no} — {} messages from the top peer (anon id {}), by content strategy",
            kind.name(),
            peer.0
        ),
        &c,
        vec![
            ("peer", peer.0.into()),
            ("plateaus_rc", flat_rc.clone().into()),
            ("plateaus_nc", flat_nc.clone().into()),
        ],
    );
    artefact.text.push_str(&format!(
        "plateaus (≥2 quiet days): random content {flat_rc:?}, no content {flat_nc:?}\n"
    ));
    artefact
}

/// `extra` holds the figure's own entries of the data object.
fn subset_artefact(
    title: String,
    curve: &[SubsetPoint],
    extra: Vec<(&'static str, Json)>,
) -> Artefact {
    let ns: Vec<u64> = curve.iter().map(|p| p.n as u64).collect();
    let avg: Vec<u64> = curve.iter().map(|p| p.avg.round() as u64).collect();
    let min: Vec<u64> = curve.iter().map(|p| p.min).collect();
    let max: Vec<u64> = curve.iter().map(|p| p.max).collect();
    let chart = ascii_chart(
        &[
            ("avg", &avg.iter().map(|&v| v as f64).collect::<Vec<_>>()[..]),
            ("min", &min.iter().map(|&v| v as f64).collect::<Vec<_>>()[..]),
            ("max", &max.iter().map(|&v| v as f64).collect::<Vec<_>>()[..]),
        ],
        64,
        12,
    );
    let text = format!(
        "{title}\n{}\n{}",
        series_table("n", &ns, &[("avg", &avg), ("min", &min), ("max", &max)]),
        chart,
    );
    let shared = [
        ("n", Json::from(ns)),
        ("avg", Json::from(curve.iter().map(|p| p.avg).collect::<Vec<_>>())),
        ("min", Json::from(min)),
        ("max", Json::from(max)),
    ];
    Artefact { text, data: Json::object(shared.into_iter().chain(extra)) }
}

/// Fig. 10: distinct peers vs number of honeypots (100 random subsets per
/// n; min/avg/max).
pub fn fig10(ix: &LogIndex, samples: usize, seed: u64) -> Artefact {
    let curve = subset_curve(ix.honeypot_peer_sets(), samples, seed);
    let single_min = curve.first().map_or(0, |p| p.min);
    let single_max = curve.first().map_or(0, |p| p.max);
    subset_artefact(
        format!(
            "Fig. 10 — distinct peers vs number of honeypots ({samples} samples/n; singles {}–{})",
            format_count(single_min),
            format_count(single_max)
        ),
        &curve,
        vec![("single_min", single_min.into()), ("single_max", single_max.into())],
    )
}

/// Figs. 11 (random files) and 12 (popular files): distinct peers vs
/// number of advertised files.
pub fn fig_files(ix: &LogIndex, fig_no: u8, samples: usize, seed: u64) -> Artefact {
    let sets = ix.file_peer_sets();
    let counts = file_peer_counts(sets);
    let (label, chosen) = if fig_no == 11 {
        ("random-files", random_files(sets, 100, seed ^ 0xF11E5))
    } else {
        ("popular-files", popular_files(sets, 100))
    };
    let curve = subset_curve(&chosen, samples, seed);
    let final_avg = curve.last().map_or(0.0, |p| p.avg);
    let per_file = final_avg / curve.len().max(1) as f64;
    subset_artefact(
        format!(
            "Fig. {fig_no} — distinct peers vs number of advertised files ({label}; ≈{:.0} peers/file; best file {}, worst {})",
            per_file,
            format_count(counts.first().copied().unwrap_or(0)),
            format_count(counts.last().copied().unwrap_or(0)),
        ),
        &curve,
        vec![
            ("set", label.into()),
            ("peers_per_file", per_file.into()),
            ("best_file_peers", counts.first().copied().unwrap_or(0).into()),
            ("worst_file_peers", counts.last().copied().unwrap_or(0).into()),
            ("queried_files", counts.len().into()),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use edonkey_analysis::testutil::synthetic_log;
    use netsim::SimTime;

    fn fixture() -> (MeasurementLog, LogIndex) {
        let log = synthetic_log(&[
            (0, QueryKind::Hello, 0, SimTime::from_hours(1)),
            (0, QueryKind::StartUpload, 0, SimTime::from_hours(1)),
            (1, QueryKind::Hello, 1, SimTime::from_hours(2)),
            (1, QueryKind::StartUpload, 1, SimTime::from_hours(2)),
            (1, QueryKind::RequestPart, 1, SimTime::from_hours(3)),
            (2, QueryKind::Hello, 1, SimTime::from_hours(30)),
        ]);
        let ix = LogIndex::build(&log);
        (log, ix)
    }

    #[test]
    fn table1_renders_both_columns() {
        let (log, _) = fixture();
        let a = table1(&log, &log);
        assert!(a.text.contains("distributed") && a.text.contains("greedy"));
        assert!(a.data["distributed"]["distinct_peers"].as_u64().unwrap() == 3);
    }

    #[test]
    fn growth_figures_render() {
        let (_, ix) = fixture();
        let a = fig_growth(&ix, 2);
        assert!(a.text.contains("Fig. 2"));
        assert_eq!(a.data["total_peers"].as_u64(), Some(3));
    }

    #[test]
    fn fig04_reports_first_query() {
        let (_, ix) = fixture();
        let a = fig04(&ix);
        assert!(a.text.contains("Fig. 4"));
        assert!((a.data["first_query_min"].as_f64().unwrap() - 60.0).abs() < 1e-9);
    }

    #[test]
    fn strategy_figures_render() {
        let (_, ix) = fixture();
        for f in [fig05(&ix), fig06(&ix), fig07(&ix)] {
            assert!(f.text.contains("random content"));
            assert!(f.data["final_random"].as_u64().is_some());
        }
    }

    #[test]
    fn top_peer_figures_render() {
        let (log, ix) = fixture();
        let a = fig_top_peer(&log, &ix, 8);
        assert!(a.text.contains("top peer"));
        let b = fig_top_peer(&log, &ix, 9);
        assert!(b.text.contains("REQUEST-PART"));
    }

    #[test]
    fn top_peer_empty_log() {
        let log = synthetic_log(&[]);
        let ix = LogIndex::build(&log);
        let a = fig_top_peer(&log, &ix, 8);
        assert!(a.text.contains("no queries"));
    }

    #[test]
    fn subset_figures_render() {
        let (_, ix) = fixture();
        let a = fig10(&ix, 10, 1);
        assert!(a.text.contains("Fig. 10"));
        let b = fig_files(&ix, 11, 10, 1);
        assert!(b.data["set"].as_str() == Some("random-files"));
        let c = fig_files(&ix, 12, 10, 1);
        assert!(c.data["set"].as_str() == Some("popular-files"));
    }
}
