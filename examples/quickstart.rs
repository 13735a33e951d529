//! Quickstart: run a miniature honeypot measurement on the simulated
//! eDonkey network and print its basic statistics.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use edonkey_honeypots::analysis::report::{ascii_table, format_bytes, format_count};
use edonkey_honeypots::analysis::{basic_stats, LogIndex};
use edonkey_honeypots::platform::QueryKind;
use edonkey_honeypots::sim::{run_scenario, ScenarioConfig};

fn main() {
    // A two-day measurement with one no-content honeypot advertising one
    // file, at reduced volume so it finishes in a blink.
    let config = ScenarioConfig::tiny(42);
    println!("running a tiny measurement: 1 honeypot, {} days…", config.duration.as_days());
    let out = run_scenario(config);

    let stats = basic_stats(&out.log);
    let rows = vec![
        vec!["distinct peers".into(), format_count(u64::from(stats.distinct_peers))],
        vec!["distinct files".into(), format_count(stats.distinct_files as u64)],
        vec!["space of distinct files".into(), format_bytes(stats.distinct_files_bytes)],
        vec![
            "HELLO / START-UPLOAD / REQUEST-PART".into(),
            format!(
                "{} / {} / {}",
                out.log.records_of(QueryKind::Hello).count(),
                out.log.records_of(QueryKind::StartUpload).count(),
                out.log.records_of(QueryKind::RequestPart).count()
            ),
        ],
    ];
    println!("{}", ascii_table(&["statistic", "value"], &rows));

    let growth = LogIndex::build(&out.log).peer_growth();
    println!("peers per day: {:?}", growth.new_per_day);
    println!(
        "simulation: {} arrivals, {} sessions, {} detections",
        out.stats.arrivals,
        out.stats.sessions,
        out.stats.detections_nc + out.stats.detections_rc
    );
}
