//! Regenerates Fig. 3 (distinct peers over time, greedy measurement).

use edonkey_analysis::LogIndex;
use edonkey_experiments::figures;
use edonkey_experiments::{Measurement, Options};

fn main() {
    let opts = Options::from_args();
    let log = opts.run(Measurement::Greedy);
    let ix = LogIndex::build(&log);
    let artefact = figures::fig_growth(&ix, 3);
    println!("{}", artefact.text);
    if opts.json {
        println!("{}", artefact.data.pretty());
    }
}
