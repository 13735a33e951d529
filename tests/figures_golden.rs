//! The figure golden: the data of all twelve artefacts (Table I, Figs.
//! 2–12) at a small scale, printed the way `all --json` prints it, must
//! hash to a pinned MD4.  Every analysis refactor runs under it — a
//! statistic computed a different way but to the same bytes passes, any
//! changed byte fails.
//!
//! The log goldens pin the whole measurement underneath: the MD4 of the
//! `storage::save` bytes of both simulated logs, and of one tiny scenario
//! with crashes and greedy adoption turned on — the kill → relaunch →
//! re-offer path neither full scenario reaches.  A world refactor that
//! keeps every record, shared list and table entry passes; one that moves
//! a single byte fails.
//!
//! Only a change that declares it changes the measurement (a new population
//! model, a re-pinned simulation) may re-pin these digests; re-pin them
//! from the failure message and say so in the change's description.

use edonkey_honeypots::analysis::LogIndex;
use edonkey_honeypots::experiments::{figures, Measurement, Options};
use edonkey_honeypots::netsim::time::MS_PER_HOUR;
use edonkey_honeypots::netsim::{Json, SimTime};
use edonkey_honeypots::platform::{storage, ContentStrategy, MeasurementLog};
use edonkey_honeypots::proto::md4::{md4, to_hex};
use edonkey_honeypots::sim::{run_scenario, CrashConfig, HoneypotSetup, ScenarioConfig};

/// MD4 of the pretty-printed artefact data below.
const GOLDEN_MD4: &str = "0e3219b20562843bef67271278c40419";

/// MD4 of the saved distributed and greedy logs the artefacts come from.
const DISTRIBUTED_LOG_MD4: &str = "9e6548192a695613d1b5127402c5f05a";
const GREEDY_LOG_MD4: &str = "919b7b8b38e0277aea5253ed8e2ca36f";

/// MD4 of the saved log of [`rare_paths_scenario`].
const RARE_PATHS_LOG_MD4: &str = "54bf324e3682f227c6f0e03c7233f633";

/// MD4 of `log` as `storage::save` writes it.
fn saved_md4(log: &MeasurementLog, tag: &str) -> String {
    let path = std::env::temp_dir().join(format!("edhp-golden-{tag}-{}.edhp", std::process::id()));
    storage::save(log, &path).expect("save the log");
    let bytes = std::fs::read(&path).expect("read the saved log");
    let _ = std::fs::remove_file(&path);
    to_hex(&md4(&bytes))
}

#[test]
fn twelve_artefacts_print_the_pinned_bytes() {
    let opts = Options { scale: 0.01, samples: 10, no_cache: true, ..Default::default() };
    let dist = opts.run(Measurement::Distributed);
    let greedy = opts.run(Measurement::Greedy);
    assert_eq!(saved_md4(&dist, "distributed"), DISTRIBUTED_LOG_MD4, "distributed log changed");
    assert_eq!(saved_md4(&greedy, "greedy"), GREEDY_LOG_MD4, "greedy log changed");
    let (dist_ix, greedy_ix) = (LogIndex::build(&dist), LogIndex::build(&greedy));
    let artefacts = figures::all(&dist, &greedy, &dist_ix, &greedy_ix, opts.samples, opts.seed);
    assert_eq!(artefacts.len(), 12);
    let printed = Json::object(artefacts.into_iter().map(|(id, a)| (id, a.data))).pretty();
    let digest = to_hex(&md4(printed.as_bytes()));
    assert_eq!(digest, GOLDEN_MD4, "artefact data changed; it now prints:\n{printed}");
}

/// Two days around a greedy honeypot that adopts for one day and a
/// random-content one, both crashing every few hours: peers reach dead
/// honeypots, the manager relaunches them, and each relaunch re-offers the
/// adopted list to a server that forgot it.
fn rare_paths_scenario() -> ScenarioConfig {
    let mut config = ScenarioConfig::tiny(33);
    config.honeypots = vec![
        HoneypotSetup::greedy(vec![0], SimTime::from_days(1), 400),
        HoneypotSetup::fixed(ContentStrategy::RandomContent, vec![0, 1], 1.0),
    ];
    config.crashes = Some(CrashConfig { mtbf_ms: 5 * MS_PER_HOUR });
    config
}

#[test]
fn rare_paths_log_is_pinned() {
    let out = run_scenario(rare_paths_scenario());
    assert!(out.stats.crashes > 0 && out.relaunches > 0, "the crash path is exercised");
    assert!(out.log.shared_files_final > 1, "the greedy honeypot adopted files");
    assert!(!out.log.shared_lists.is_empty());
    assert_eq!(saved_md4(&out.log, "rare"), RARE_PATHS_LOG_MD4, "rare-path log changed");
}
