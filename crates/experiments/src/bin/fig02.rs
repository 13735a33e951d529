//! Regenerates Fig. 2 (distinct peers over time, distributed measurement).

use edonkey_analysis::LogIndex;
use edonkey_experiments::figures;
use edonkey_experiments::{Measurement, Options};

fn main() {
    let opts = Options::from_args();
    let log = opts.run(Measurement::Distributed);
    let ix = LogIndex::build(&log);
    let artefact = figures::fig_growth(&ix, 2);
    println!("{}", artefact.text);
    if opts.json {
        println!("{}", artefact.data.pretty());
    }
}
