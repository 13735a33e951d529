//! Regenerates Fig. 11 (peers vs number of random files).

use edonkey_analysis::LogIndex;
use edonkey_experiments::figures;
use edonkey_experiments::{Measurement, Options};

fn main() {
    let opts = Options::from_args();
    let log = opts.run(Measurement::Greedy);
    let ix = LogIndex::build(&log);
    let artefact = figures::fig_files(&ix, 11, opts.samples, opts.seed);
    println!("{}", artefact.text);
    if opts.json {
        println!("{}", artefact.data.pretty());
    }
}
