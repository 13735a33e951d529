//! Topic-targeted measurement (the paper's §V future work): honeypots
//! covering every file matching a keyword, comparing the *replicated* and
//! *partitioned* coordination strategies.
//!
//! ```sh
//! cargo run --release -p edonkey-experiments --bin targeted -- --scale 0.3
//! ```

use edonkey_analysis::report::{ascii_table, format_count};
use edonkey_analysis::{basic_stats, file_peer_counts, LogIndex};
use edonkey_experiments::targeted::{targeted, Coordination};
use edonkey_experiments::Options;
use edonkey_sim::run_scenario;

fn main() {
    let opts = Options::from_args();
    let keyword = "concert";
    let mut rows = Vec::new();
    for strategy in [Coordination::Replicated, Coordination::Partitioned] {
        let (config, info) = targeted(opts.seed, opts.scale, keyword, 8, 24, 10, strategy);
        eprintln!(
            "[targeted] {} — {} honeypots, {} target files matching {keyword:?}",
            strategy.label(),
            info.honeypots,
            info.files.len()
        );
        let out = run_scenario(config);
        let stats = basic_stats(&out.log);
        let counts = file_peer_counts(LogIndex::build(&out.log).file_peer_sets());
        let covered = counts.iter().filter(|&&c| c > 0).count();
        rows.push(vec![
            strategy.label().to_string(),
            format_count(u64::from(stats.distinct_peers)),
            format!("{}/{}", covered, info.files.len()),
            format_count(counts.first().copied().unwrap_or(0)),
            format_count(*counts.last().unwrap_or(&0)),
            format_count(out.log.records.len() as u64),
        ]);
    }
    println!("Targeted measurement — keyword {keyword:?}, 8 honeypots, 10 days");
    println!(
        "{}",
        ascii_table(
            &[
                "coordination",
                "distinct peers",
                "files covered",
                "best file",
                "worst file",
                "records"
            ],
            &rows
        )
    );
    println!(
        "Replication multiplies per-file provider exposure; partitioning gives\n\
         each honeypot an exclusive, directly attributable slice of the topic."
    );
}
