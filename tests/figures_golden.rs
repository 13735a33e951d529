//! The figure golden: the data of all twelve artefacts (Table I, Figs.
//! 2–12) at a small scale, printed the way `all --json` prints it, must
//! hash to a pinned MD4.  Every analysis refactor runs under it — a
//! statistic computed a different way but to the same bytes passes, any
//! changed byte fails.
//!
//! Only a change that declares it changes the measurement (a new population
//! model, a re-pinned simulation) may re-pin [`GOLDEN_MD4`]; re-pin it from
//! the failure message and say so in the change's description.

use edonkey_honeypots::analysis::LogIndex;
use edonkey_honeypots::experiments::{figures, Measurement, Options};
use edonkey_honeypots::netsim::Json;
use edonkey_honeypots::proto::md4::{md4, to_hex};

/// MD4 of the pretty-printed artefact data below.
const GOLDEN_MD4: &str = "0e3219b20562843bef67271278c40419";

#[test]
fn twelve_artefacts_print_the_pinned_bytes() {
    let opts = Options { scale: 0.01, samples: 10, no_cache: true, ..Default::default() };
    let dist = opts.run(Measurement::Distributed);
    let greedy = opts.run(Measurement::Greedy);
    let (dist_ix, greedy_ix) = (LogIndex::build(&dist), LogIndex::build(&greedy));
    let artefacts = figures::all(&dist, &greedy, &dist_ix, &greedy_ix, opts.samples, opts.seed);
    assert_eq!(artefacts.len(), 12);
    let printed = Json::object(artefacts.into_iter().map(|(id, a)| (id, a.data))).pretty();
    let digest = to_hex(&md4(printed.as_bytes()));
    assert_eq!(digest, GOLDEN_MD4, "artefact data changed; it now prints:\n{printed}");
}
