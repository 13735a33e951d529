//! Regenerates Table I (basic statistics of both measurements).

use edonkey_experiments::figures::table1;
use edonkey_experiments::{Measurement, Options};

fn main() {
    let opts = Options::from_args();
    let dist = opts.run(Measurement::Distributed);
    let greedy = opts.run(Measurement::Greedy);
    let artefact = table1(&dist, &greedy);
    println!("{}", artefact.text);
    if opts.json {
        println!("{}", artefact.data.pretty());
    }
}
