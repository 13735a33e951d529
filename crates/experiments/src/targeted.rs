//! Topic-targeted measurements — the paper's primary future-work direction
//! (§V): "being able to capture all the activity regarding a particular
//! file or a set of files, and/or a specific keyword", including the open
//! question "how should distributed honeypots be coordinated?".
//!
//! The operator picks a keyword; the manager finds the matching files (the
//! way a real operator would run a SEARCH-REQUEST against a large server —
//! here the selection runs the same [`edonkey_proto::SearchExpr`] matching
//! over the synthetic catalog) and distributes them over the honeypots
//! according to a [`Coordination`] strategy.

use edonkey_proto::SearchExpr;
use edonkey_sim::{CatalogConfig, HoneypotSetup, ScenarioConfig};
use honeypot::ContentStrategy;
use netsim::SimTime;

use crate::scenarios;

/// How target files are spread over the honeypots.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Coordination {
    /// Every honeypot advertises every target file (the paper's
    /// distributed measurement did this with its four files).  Maximises
    /// per-file provider count; peers spread their contacts.
    Replicated,
    /// The target files are partitioned round-robin: each file has exactly
    /// one honeypot.  Each honeypot is the unique source for its slice, so
    /// per-honeypot logs directly segment the topic.
    Partitioned,
}

impl Coordination {
    pub fn label(&self) -> &'static str {
        match self {
            Coordination::Replicated => "replicated",
            Coordination::Partitioned => "partitioned",
        }
    }
}

/// What a targeted scenario is measuring.
#[derive(Clone, Debug)]
pub struct TargetInfo {
    pub keyword: String,
    /// Catalog indices of the target files.
    pub files: Vec<u32>,
    pub coordination: Coordination,
    pub honeypots: usize,
}

/// Builds a targeted scenario: `honeypots` honeypots covering every catalog
/// file matching `keyword` (up to `max_files`), coordinated per `strategy`,
/// for `days` days at volume `scale`.
pub fn targeted(
    seed: u64,
    scale: f64,
    keyword: &str,
    honeypots: usize,
    max_files: usize,
    days: u64,
    strategy: Coordination,
) -> (ScenarioConfig, TargetInfo) {
    assert!(honeypots > 0, "need at least one honeypot");
    // Reuse the distributed scenario's calibrated behaviour; only the
    // catalog targeting and honeypot layout change.
    let mut config = scenarios::distributed(seed, 1.0);
    config.duration = SimTime::from_days(days);
    config.catalog = CatalogConfig { n_files: 30_000, ..config.catalog };

    // "Search" the universe for the keyword, exactly as the manager would
    // query a large server.
    let catalog = config.build_catalog();
    let expr = SearchExpr::keyword(keyword);
    let mut files: Vec<u32> = (0..catalog.len() as u32)
        .filter(|&i| {
            let f = catalog.file(i);
            expr.matches(&f.name, f.size, "")
        })
        .collect();
    // Most popular matches first: the operator targets the active part of
    // the topic.
    files.sort_by(|&a, &b| {
        catalog.file(b).popularity.partial_cmp(&catalog.file(a).popularity).expect("finite")
    });
    files.truncate(max_files);
    assert!(!files.is_empty(), "keyword {keyword:?} matches no catalog file");

    config.honeypots.clear();
    for i in 0..honeypots {
        let content =
            if i % 2 == 0 { ContentStrategy::NoContent } else { ContentStrategy::RandomContent };
        let advertised: Vec<u32> = match strategy {
            Coordination::Replicated => files.clone(),
            Coordination::Partitioned => files.iter().copied().skip(i).step_by(honeypots).collect(),
        };
        config.honeypots.push(HoneypotSetup::fixed(content, advertised, 1.0));
    }

    // Normalise the arrival rate against the targeted set's popularity so
    // different keywords are comparable (same expected peers/day at scale
    // 1 per unit of target mass).
    let mass = catalog.popularity_sum(files.iter().copied());
    config.population.rate_per_popularity = 1_500.0 / mass;
    let config = config.scaled(scale);

    let info =
        TargetInfo { keyword: keyword.to_string(), files, coordination: strategy, honeypots };
    (config, info)
}

#[cfg(test)]
mod tests {
    use super::*;
    use edonkey_analysis::{subset_curve, LogIndex};
    use edonkey_sim::run_scenario;

    #[test]
    fn targeted_scenarios_build_for_both_strategies() {
        for strategy in [Coordination::Replicated, Coordination::Partitioned] {
            let (config, info) = targeted(3, 1.0, "concert", 6, 24, 7, strategy);
            assert_eq!(config.honeypots.len(), 6);
            assert!(!info.files.is_empty() && info.files.len() <= 24);
            match strategy {
                Coordination::Replicated => {
                    for h in &config.honeypots {
                        assert_eq!(
                            h.fixed_files.as_ref().unwrap().len(),
                            info.files.len(),
                            "replicated: everyone advertises everything"
                        );
                    }
                }
                Coordination::Partitioned => {
                    let total: usize = config
                        .honeypots
                        .iter()
                        .map(|h| h.fixed_files.as_ref().unwrap().len())
                        .sum();
                    assert_eq!(total, info.files.len(), "partitioned: exact cover");
                    // Disjointness.
                    let mut all: Vec<u32> = config
                        .honeypots
                        .iter()
                        .flat_map(|h| h.fixed_files.clone().unwrap())
                        .collect();
                    all.sort_unstable();
                    let before = all.len();
                    all.dedup();
                    assert_eq!(all.len(), before);
                }
            }
        }
    }

    #[test]
    fn matched_files_contain_the_keyword() {
        let (config, info) = targeted(5, 1.0, "live", 4, 50, 7, Coordination::Replicated);
        let catalog = config.build_catalog();
        for &f in &info.files {
            let name = catalog.file(f).name.to_ascii_lowercase();
            assert!(name.contains("live"), "{name}");
        }
    }

    #[test]
    fn replicated_run_observes_topic_peers() {
        let (config, info) = targeted(7, 0.3, "concert", 4, 12, 5, Coordination::Replicated);
        let out = run_scenario(config);
        assert!(out.log.validate().is_empty());
        assert!(out.log.distinct_peers > 50, "got {}", out.log.distinct_peers);
        // Every queried file is one of the targets.
        let catalog_targets: std::collections::HashSet<u32> = info.files.iter().copied().collect();
        assert!(!catalog_targets.is_empty());
        let ix = LogIndex::build(&out.log);
        let sets = ix.file_peer_sets();
        assert!(!sets.is_empty());
        // Coverage keeps growing with more target files (the paper's
        // conclusion that bigger target sets pay off).
        let curves = subset_curve(&sets.iter().map(|(_, s)| s.clone()).collect::<Vec<_>>(), 10, 1);
        assert!(curves.last().unwrap().avg >= curves[0].avg);
    }

    #[test]
    #[should_panic(expected = "matches no catalog file")]
    fn unknown_keyword_panics() {
        let _ = targeted(5, 1.0, "zzzznonexistent", 4, 10, 7, Coordination::Replicated);
    }
}
