//! Regenerates Fig. 7 (REQUEST-PART messages per strategy).

use edonkey_analysis::LogIndex;
use edonkey_experiments::figures;
use edonkey_experiments::{Measurement, Options};

fn main() {
    let opts = Options::from_args();
    let log = opts.run(Measurement::Distributed);
    let ix = LogIndex::build(&log);
    let artefact = figures::fig07(&ix);
    println!("{}", artefact.text);
    if opts.json {
        println!("{}", artefact.data.pretty());
    }
}
