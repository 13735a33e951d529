//! The paper's *greedy* scenario at reduced scale: one honeypot that
//! starts from three seed files, adopts every file appearing in contacting
//! peers' shared lists during day 1, then freezes and just records.
//!
//! ```sh
//! cargo run --release --example greedy_measurement -- --scale 0.02
//! ```

use edonkey_honeypots::analysis::report::{format_bytes, format_count};
use edonkey_honeypots::analysis::{basic_stats, file_peer_counts, LogIndex};
use edonkey_honeypots::experiments::{Measurement, Options};

fn main() {
    let mut opts = Options::from_args();
    if (opts.scale - 1.0).abs() < f64::EPSILON {
        opts.scale = 0.02;
    }
    let log = opts.run(Measurement::Greedy);

    let stats = basic_stats(&log);
    println!(
        "greedy honeypot: seeds 3 → advertised {} files after day-1 adoption",
        format_count(u64::from(stats.shared_files))
    );
    println!(
        "observed {} distinct peers and {} distinct files ({})",
        format_count(u64::from(stats.distinct_peers)),
        format_count(stats.distinct_files as u64),
        format_bytes(stats.distinct_files_bytes)
    );

    let ix = LogIndex::build(&log);
    let growth = ix.peer_growth();
    println!("\nnew peers per day (note the day-1 initialisation dip, paper Fig. 3):");
    for (day, n) in growth.new_per_day.iter().enumerate() {
        println!("  day {day:>2}: {}", format_count(*n));
    }

    let counts = file_peer_counts(ix.file_peer_sets());
    println!(
        "\nper-file interest over {} queried files: best {}, median {}, worst {}",
        counts.len(),
        counts.first().copied().unwrap_or(0),
        counts.get(counts.len() / 2).copied().unwrap_or(0),
        counts.last().copied().unwrap_or(0)
    );
}
