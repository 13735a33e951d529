//! Co-interest analysis (the paper's §V agenda): relations between peers
//! that want the same files and between files wanted by the same peers,
//! computed over the greedy measurement's log.
//!
//! ```sh
//! cargo run --release -p edonkey-experiments --bin cointerest -- --scale 0.1
//! ```

use edonkey_analysis::cointerest::{co_interest, peer_degree_histogram};
use edonkey_analysis::report::{ascii_table, format_count};
use edonkey_experiments::{Measurement, Options};

fn main() {
    let opts = Options::from_args();
    let log = opts.run(Measurement::Greedy);

    let stats = co_interest(&log, 15);
    println!("Co-interest analysis over the greedy measurement");
    println!(
        "  querying peers: {}   with ≥2 files: {} ({:.1} %)   mean files/peer: {:.2}",
        format_count(stats.querying_peers),
        format_count(stats.multi_file_peers),
        100.0 * stats.multi_file_peers as f64 / stats.querying_peers.max(1) as f64,
        stats.mean_files_per_peer,
    );
    println!("  co-interested file pairs: {}", format_count(stats.file_pairs));

    let rows: Vec<Vec<String>> = stats
        .top_pairs
        .iter()
        .map(|p| {
            vec![
                log.files.name(p.file_a).to_string(),
                log.files.name(p.file_b).to_string(),
                format_count(p.common_peers),
                format!("{:.4}", p.jaccard),
            ]
        })
        .collect();
    println!("\nstrongest file pairs (by peers interested in both):");
    println!("{}", ascii_table(&["file A", "file B", "common peers", "jaccard"], &rows));

    println!("peer co-interest degree distribution (upper-bound degrees):");
    let hist = peer_degree_histogram(&log);
    let rows: Vec<Vec<String>> = hist.into_iter().map(|(b, c)| vec![b, format_count(c)]).collect();
    println!("{}", ascii_table(&["co-peers", "peers"], &rows));

    if opts.json {
        println!("{}", stats.to_json().pretty());
    }
}
