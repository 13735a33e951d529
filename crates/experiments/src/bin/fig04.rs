//! Regenerates Fig. 4 (HELLO messages per hour, first week).

use edonkey_analysis::LogIndex;
use edonkey_experiments::figures;
use edonkey_experiments::{Measurement, Options};

fn main() {
    let opts = Options::from_args();
    let log = opts.run(Measurement::Distributed);
    let ix = LogIndex::build(&log);
    let artefact = figures::fig04(&ix);
    println!("{}", artefact.text);
    if opts.json {
        println!("{}", artefact.data.pretty());
    }
}
