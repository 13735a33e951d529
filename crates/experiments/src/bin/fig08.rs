//! Regenerates Fig. 8 (top peer START-UPLOAD series).

use edonkey_analysis::LogIndex;
use edonkey_experiments::figures;
use edonkey_experiments::{Measurement, Options};

fn main() {
    let opts = Options::from_args();
    let log = opts.run(Measurement::Distributed);
    let ix = LogIndex::build(&log);
    let artefact = figures::fig_top_peer(&log, &ix, 8);
    println!("{}", artefact.text);
    if opts.json {
        println!("{}", artefact.data.pretty());
    }
}
