//! The paper's *distributed* scenario at reduced scale: 24 honeypots (12
//! no-content, 12 random-content) advertising the same four files on one
//! server for 32 days.
//!
//! Prints the strategy comparison (paper Figs. 5–7) and the growth curve
//! (Fig. 2).  Use `--scale`/`--seed` to change volume and randomness; at
//! `--scale 1.0` magnitudes approach the paper's (≈110 k peers).
//!
//! ```sh
//! cargo run --release --example distributed_measurement -- --scale 0.05
//! ```

use edonkey_honeypots::analysis::report::format_count;
use edonkey_honeypots::analysis::LogIndex;
use edonkey_honeypots::experiments::{Measurement, Options};
use edonkey_honeypots::platform::QueryKind;

fn main() {
    let mut opts = Options::from_args();
    if (opts.scale - 1.0).abs() < f64::EPSILON {
        // Examples default to a light footprint; ask for --scale 1.0 being
        // intentional via the dedicated experiment binaries.
        opts.scale = 0.05;
    }
    let ix = LogIndex::build(&opts.run(Measurement::Distributed));

    let growth = ix.peer_growth();
    println!(
        "distinct peers: {} (last-5-day rate {:.0}/day)",
        format_count(growth.total()),
        growth.tail_rate(5)
    );

    let hello = ix.distinct_peers_by_strategy(QueryKind::Hello);
    let upload = ix.distinct_peers_by_strategy(QueryKind::StartUpload);
    let parts = ix.messages_by_strategy(QueryKind::RequestPart);
    println!("\nstrategy comparison (random-content vs no-content):");
    println!("  distinct HELLO peers:        {:>9} vs {:>9}", hello.finals().0, hello.finals().1);
    println!("  distinct START-UPLOAD peers: {:>9} vs {:>9}", upload.finals().0, upload.finals().1);
    println!("  REQUEST-PART messages:       {:>9} vs {:>9}", parts.finals().0, parts.finals().1);
    println!(
        "  ⇒ random content {} (paper: random content wins)",
        if hello.random_wins() { "wins" } else { "does NOT win" }
    );

    let hourly = ix.hourly_counts(QueryKind::Hello);
    println!("\nday/night ratio of HELLO arrivals: {:.1}×", hourly.day_night_ratio());
}
