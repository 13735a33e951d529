//! Regenerates Fig. 9 (top peer REQUEST-PART series).

use edonkey_analysis::LogIndex;
use edonkey_experiments::figures;
use edonkey_experiments::{Measurement, Options};

fn main() {
    let opts = Options::from_args();
    let log = opts.run(Measurement::Distributed);
    let ix = LogIndex::build(&log);
    let artefact = figures::fig_top_peer(&log, &ix, 9);
    println!("{}", artefact.text);
    if opts.json {
        println!("{}", artefact.data.pretty());
    }
}
