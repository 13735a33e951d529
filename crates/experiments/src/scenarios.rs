//! The two calibrated measurement scenarios of the paper's evaluation
//! (§IV):
//!
//! * **distributed** — 24 honeypots on one large server for 32 days, all
//!   advertising the same four files (a movie, a song, a linux
//!   distribution and a text); honeypots with even index answer nothing,
//!   odd ones send random content (two groups of 12, as in the paper);
//! * **greedy** — a single honeypot for 15 days that starts from three
//!   seed files, adopts every file seen in contacting peers' shared lists
//!   during day 1, then freezes its (~3,000-file) list.
//!
//! Calibration targets are the paper's published magnitudes (Table I and
//! Figs. 2–12); see `EXPERIMENTS.md` for paper-vs-measured values.

use edonkey_sim::catalog::FileClass;
use edonkey_sim::{
    BehaviorConfig, BlacklistConfig, CatalogConfig, CatalogDraws, HoneypotSetup, PopulationConfig,
    QueueKind, RobotConfig, ScenarioConfig, ServerCaptureConfig,
};
use honeypot::ContentStrategy;
use netsim::time::{MS_PER_HOUR, MS_PER_MIN, MS_PER_SEC};
use netsim::{DiurnalCurve, SimTime};

/// Default master seed of the published experiments.
pub const DEFAULT_SEED: u64 = 0xED0_2009;

/// Number of honeypots in the distributed measurement.
pub const DISTRIBUTED_HONEYPOTS: usize = 24;
/// Duration of the distributed measurement (the paper ran October 2008,
/// reported as 32 days in Table I).
pub const DISTRIBUTED_DAYS: u64 = 32;
/// Duration of the greedy measurement (first two weeks of November 2008).
pub const GREEDY_DAYS: u64 = 15;
/// Duration of the server-side capture ("ten weeks in the life of an
/// eDonkey server" ran 2007-02-09 → 2007-04-20: ten weeks).
pub const SERVER_CAPTURE_DAYS: u64 = 70;

/// Picks, per file class, the most popular catalog file of that class —
/// the distributed measurement's "a movie, a song, a linux distribution
/// and a text".
fn pick_four_files(catalog: &CatalogDraws) -> Vec<u32> {
    let mut best: [Option<(f64, u32)>; 4] = [None; 4];
    for i in 0..catalog.len() as u32 {
        let popularity = catalog.popularity(i);
        let slot = match catalog.class(i) {
            FileClass::Video => 0,
            FileClass::Audio => 1,
            FileClass::Archive => 2,
            FileClass::Document => 3,
        };
        if best[slot].is_none_or(|(p, _)| popularity > p) {
            best[slot] = Some((popularity, i));
        }
    }
    best.iter().filter_map(|b| b.map(|(_, i)| i)).collect()
}

/// The `k` indices in `0..n` whose `popularity` lies nearest `target`,
/// nearest first, in one pass.  On an equal distance the more popular
/// file wins, then the lower index.
fn nearest_popularity(n: u32, popularity: impl Fn(u32) -> f64, target: f64, k: usize) -> Vec<u32> {
    // (distance, popularity, index), best first.
    let before = |a: &(f64, f64, u32), b: &(f64, f64, u32)| {
        a.0.partial_cmp(&b.0)
            .expect("finite")
            .then(b.1.partial_cmp(&a.1).expect("finite"))
            .then(a.2.cmp(&b.2))
            .is_lt()
    };
    let mut best: Vec<(f64, f64, u32)> = Vec::with_capacity(k + 1);
    for i in 0..n {
        let p = popularity(i);
        let candidate = ((p - target).abs(), p, i);
        let at = best.partition_point(|b| before(b, &candidate));
        if at < k {
            best.insert(at, candidate);
            best.truncate(k);
        }
    }
    best.into_iter().map(|(_, _, i)| i).collect()
}

/// Builds the distributed scenario at volume `scale` (1.0 = paper scale).
pub fn distributed(seed: u64, scale: f64) -> ScenarioConfig {
    let catalog = CatalogConfig {
        // ~30 k reachable files: with ~400 k shared-list draws over a
        // month, the observable universe saturates near Table I's 28,007
        // distinct files.
        n_files: 30_000,
        zipf_exponent: 0.45,
        popularity_sigma: 1.1,
        // Class mix tuned for a ≈330 MB mean file size (Table I: 9 TB /
        // 28 k files).
        class_weights: [0.32, 0.36, 0.09, 0.23],
        hit_count: 0,
        hit_multiplier: 1.0,
        dead_fraction: 0.10,
        dead_multiplier: 0.002,
    };
    let mut config = ScenarioConfig {
        seed,
        duration: SimTime::from_days(DISTRIBUTED_DAYS),
        catalog,
        honeypots: Vec::new(),
        population: PopulationConfig {
            rate_per_popularity: 0.0, // normalised below
            daily_decay: 0.976,
            // Amplitude 0.9 after retry-traffic damping yields the strong
            // day/night swing of Fig. 4.
            diurnal: DiurnalCurve { peak_hour: 15.0, amplitude: 0.85 },
            local_offset_hours: 9.0,
            wanted_files_mean: 1.25,
            share_list_prob: 0.35,
            shared_list_mean: 11.0,
            arrival_tick_ms: 5 * MS_PER_MIN,
        },
        behavior: BehaviorConfig {
            hello_only_prob: 0.30,
            // Heavy-tailed provider fan-out: most peers try one or two
            // sources, a fat tail contacts everything.  This single knob
            // carries both Fig. 10's spread and the ~30 % of peers that
            // never touch one strategy group (Figs. 5-6).
            subset_mean: 2.6,
            subset_all_prob: 0.13,
            // Re-ask timeout only moderately above the ~11 s three-block
            // transfer: that ratio is exactly the top peer's rc/nc pacing
            // gap in Figs. 8–9 (paper: ≈1.4×).
            nc_timeout_ms: 15 * MS_PER_SEC,
            nc_timeouts_to_fail: 5,
            nc_detect_prob: 0.40,
            rc_transfer_ms: 11 * MS_PER_SEC,
            rc_budget_mean: 2.5,
            rc_detect_prob: 0.03,
            abandon_failures: 6,
            retry_interval_ms: 80 * MS_PER_MIN,
            interest_mean_ms: 26 * MS_PER_HOUR,
            retry_request_prob: 0.60,
            contact_gap_ms: 2 * MS_PER_SEC,
        },
        blacklist: BlacklistConfig {
            skip_cap: 0.5,
            halfway_detections: 25_000.0,
            source_quality_bonus: 0.35,
        },
        robots: RobotConfig {
            count: 5,
            budget: 2,
            nc_timeout_ms: 12 * MS_PER_MIN,
            lockout_ms: 100 * MS_PER_MIN,
            off_prob: 0.000_5,
            off_duration_ms: 60 * MS_PER_HOUR,
        },
        crashes: None,
        server_capture: None,
        manager_check_ms: 10 * MS_PER_MIN,
        collect_ms: 12 * MS_PER_HOUR,
        keepalive_ms: 30 * MS_PER_MIN,
        name_threshold: 3,
        // Retry/keepalive traffic clusters tightly in time — exactly the
        // pattern the calendar queue wins on (results are identical either
        // way; see the sim crate's determinism test).
        queue: QueueKind::Calendar,
    };

    let catalog = config.build_catalog_draws();
    let four = pick_four_files(&catalog);
    assert_eq!(four.len(), 4, "catalog must contain all four classes");

    // 24 honeypots: alternating strategies so both groups share the same
    // attractiveness profile; attractiveness spans ~[0.55, 1.55] to create
    // the single-honeypot spread of Fig. 10 (13k–37k).
    for i in 0..DISTRIBUTED_HONEYPOTS {
        let content =
            if i % 2 == 0 { ContentStrategy::NoContent } else { ContentStrategy::RandomContent };
        let attractiveness = 0.28 + ((i / 2) as f64) * (2.72 / 11.0);
        config.honeypots.push(HoneypotSetup::fixed(content, four.clone(), attractiveness));
    }

    // Normalise the arrival rate so day 0 brings ≈ 4,900 new peers/day at
    // scale 1 (decaying to ≈ 2,700/day by day 31 — Fig. 2's right axis).
    let pop4 = catalog.popularity_sum(four.iter().copied());
    config.population.rate_per_popularity = 5_000.0 / pop4;
    config.scaled(scale)
}

/// Builds the greedy scenario at volume `scale` (1.0 = paper scale).
pub fn greedy(seed: u64, scale: f64) -> ScenarioConfig {
    let catalog = CatalogConfig {
        n_files: 400_000,
        // Gentle rank skew + moderate jitter: within the harvested set the
        // per-file interest spread must match Fig. 11/12 (random-100 ≈ 2.7×
        // below popular-100, not orders of magnitude); the explicit hits
        // supply the 13 k-peer best file.
        zipf_exponent: 0.10,
        popularity_sigma: 0.48,
        class_weights: [0.32, 0.36, 0.09, 0.23],
        hit_count: 5,
        hit_multiplier: 12.0,
        // A large near-dead tail: files shared by someone but wanted by
        // almost nobody (Fig. 12's 2-peer worst file; Table I's 267 k
        // distinct files out of a 400 k universe).
        dead_fraction: 0.35,
        dead_multiplier: 0.005,
    };
    let mut config = ScenarioConfig {
        seed: seed ^ 0x6EED,
        duration: SimTime::from_days(GREEDY_DAYS),
        catalog,
        honeypots: Vec::new(),
        population: PopulationConfig {
            rate_per_popularity: 0.0, // normalised below
            daily_decay: 1.0,
            diurnal: DiurnalCurve::european(),
            local_offset_hours: 9.0,
            wanted_files_mean: 4.6,
            share_list_prob: 0.38,
            shared_list_mean: 12.0,
            arrival_tick_ms: 5 * MS_PER_MIN,
        },
        behavior: BehaviorConfig {
            hello_only_prob: 0.25,
            subset_mean: 3.0, // moot: one provider
            subset_all_prob: 1.0,
            nc_timeout_ms: 45 * MS_PER_SEC,
            nc_timeouts_to_fail: 2,
            nc_detect_prob: 0.85,
            rc_transfer_ms: 11 * MS_PER_SEC,
            rc_budget_mean: 3.0,
            rc_detect_prob: 0.30,
            abandon_failures: 2,
            retry_interval_ms: 4 * MS_PER_HOUR,
            interest_mean_ms: 10 * MS_PER_HOUR,
            retry_request_prob: 0.15,
            contact_gap_ms: 2 * MS_PER_SEC,
        },
        blacklist: BlacklistConfig {
            skip_cap: 0.0,
            halfway_detections: 1.0,
            source_quality_bonus: 0.0,
        },
        robots: RobotConfig {
            count: 2,
            budget: 2,
            nc_timeout_ms: 12 * MS_PER_MIN,
            lockout_ms: 80 * MS_PER_MIN,
            off_prob: 0.000_15,
            off_duration_ms: 84 * MS_PER_HOUR,
        },
        crashes: None,
        server_capture: None,
        manager_check_ms: 10 * MS_PER_MIN,
        collect_ms: 12 * MS_PER_HOUR,
        keepalive_ms: 30 * MS_PER_MIN,
        name_threshold: 3,
        queue: QueueKind::Calendar,
    };

    let catalog = config.build_catalog_draws();
    // Estimate the eventual harvest's popularity mass (peers' shared lists
    // are popularity-weighted distinct samples, so draw one of the
    // expected size).
    let harvest_mass = {
        let mut rng = netsim::Rng::seed_from(seed ^ 0xCA11B);
        let mut sample = Vec::new();
        catalog.sample_distinct_by_popularity(&mut rng, 3_175, &mut sample);
        catalog.popularity_sum(sample.into_iter())
    };
    // Three moderately popular seed files, chosen so that together they
    // hold ≈1.5 % of the harvested mass: enough day-1 traffic (≈900
    // contacts at scale 1) to harvest thousands of shared-list files, yet
    // small against the harvested mass — that contrast is the day-1
    // initialisation dip of Fig. 3.
    let seeds = nearest_popularity(
        catalog.len() as u32,
        |i| catalog.popularity(i),
        0.005 * harvest_mass,
        3,
    );
    config.honeypots.push(HoneypotSetup::greedy(
        seeds,
        SimTime::from_days(1),
        // Cap the adopted list at the size the paper's honeypot reached
        // (3,175): uncapped adoption would depend on unobservable details
        // of the 2008 network's day-1 dynamics.
        3_175,
    ));

    // Normalisation: the steady state (days 2–15) should bring ≈ 58,000 new
    // peers/day once the honeypot advertises its harvested list.  The
    // harvest is a popularity-weighted distinct sample of the catalog
    // (peers' shared lists are sampled that way), so we estimate its mass
    // by drawing one ourselves and normalise against that.  The run then
    // lands where it lands — shape matters, not the exact count.
    config.population.rate_per_popularity = 61_000.0 / harvest_mass;
    config.scaled(scale)
}

/// Builds the long-horizon server-capture scenario at volume `scale`:
/// the distributed world stretched to ten simulated weeks, with the
/// index server logging every query it handles (the sibling paper's
/// modality) *alongside* the usual honeypot measurement — both views of
/// the same run, so the cross-validation figures compare like with like.
pub fn server_ten_weeks(seed: u64, scale: f64) -> ScenarioConfig {
    let mut config = distributed(seed ^ 0x5E17, scale);
    config.duration = SimTime::from_days(SERVER_CAPTURE_DAYS);
    // Ten weeks at the distributed decay (0.976/day) would starve weeks
    // 7–10 (0.976⁷⁰ ≈ 0.18); a server observes its whole community, not
    // one release's fading interest, so hold the population steadier.
    config.population.daily_decay = 0.995;
    config.server_capture = Some(ServerCaptureConfig::default());
    config
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every generated byte of the distributed scenario's 30 k-file catalog
    /// (id, name, size and popularity bits), pinned by MD4.
    #[test]
    fn distributed_catalog_bytes_are_pinned() {
        let catalog = distributed(DEFAULT_SEED, 1.0).build_catalog();
        assert_eq!(catalog.len(), 30_000);
        let mut h = edonkey_proto::md4::Md4::new();
        for i in 0..catalog.len() as u32 {
            let f = catalog.file(i);
            h.update(&f.id.0);
            h.update(&(f.name.len() as u32).to_le_bytes());
            h.update(f.name.as_bytes());
            h.update(&f.size.to_le_bytes());
            h.update(&f.popularity.to_bits().to_le_bytes());
        }
        let hex: String = h.finalize().iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, "ed42d1ad266a5d3242e39f6ed06ce82e");
    }

    #[test]
    fn distributed_has_24_alternating_honeypots() {
        let c = distributed(1, 1.0);
        assert_eq!(c.honeypots.len(), 24);
        let nc = c.honeypots.iter().filter(|h| h.content == ContentStrategy::NoContent).count();
        assert_eq!(nc, 12, "two groups of 12");
        assert_eq!(c.duration, SimTime::from_days(32));
        // All advertise the same four files.
        let first = c.honeypots[0].fixed_files.clone().unwrap();
        assert_eq!(first.len(), 4);
        for h in &c.honeypots {
            assert_eq!(h.fixed_files.as_ref().unwrap(), &first);
        }
        assert!(c.population.rate_per_popularity > 0.0);
    }

    #[test]
    fn distributed_attractiveness_spread() {
        let c = distributed(1, 1.0);
        let min = c.honeypots.iter().map(|h| h.attractiveness).fold(f64::MAX, f64::min);
        let max = c.honeypots.iter().map(|h| h.attractiveness).fold(f64::MIN, f64::max);
        assert!(min >= 0.2 && max <= 3.2 && max > min * 2.0, "spread [{min}, {max}]");
        // Both strategy groups see the same attractiveness profile.
        let sum_nc: f64 = c
            .honeypots
            .iter()
            .filter(|h| h.content == ContentStrategy::NoContent)
            .map(|h| h.attractiveness)
            .sum();
        let sum_rc: f64 = c
            .honeypots
            .iter()
            .filter(|h| h.content == ContentStrategy::RandomContent)
            .map(|h| h.attractiveness)
            .sum();
        assert!((sum_nc - sum_rc).abs() < 1e-9, "groups must be attractiveness-balanced");
    }

    #[test]
    fn greedy_has_single_greedy_honeypot() {
        let c = greedy(1, 1.0);
        assert_eq!(c.honeypots.len(), 1);
        assert!(c.honeypots[0].fixed_files.is_none());
        assert_eq!(c.honeypots[0].greedy_seeds.len(), 3);
        assert_eq!(c.duration, SimTime::from_days(15));
        assert_eq!(c.honeypots[0].greedy_adopt_until, SimTime::from_days(1));
    }

    #[test]
    fn server_ten_weeks_is_a_capture_scenario() {
        let c = server_ten_weeks(1, 1.0);
        assert_eq!(c.duration, SimTime::from_days(70));
        let cap = c.server_capture.expect("capture enabled");
        assert!(cap.frame_records > 0 && cap.segment_bytes > 0 && cap.status_interval_ms > 0);
        assert_eq!(c.honeypots.len(), DISTRIBUTED_HONEYPOTS, "honeypots measure the same run");
        assert!(c.population.daily_decay > distributed(1, 1.0).population.daily_decay);
    }

    #[test]
    fn four_files_cover_four_classes() {
        let c = distributed(3, 1.0);
        let catalog = c.build_catalog();
        let four = c.honeypots[0].fixed_files.clone().unwrap();
        let classes: std::collections::HashSet<_> =
            four.iter().map(|&i| catalog.file(i).class).collect();
        assert_eq!(classes.len(), 4);
    }

    #[test]
    fn scenarios_deterministic_per_seed() {
        let a = distributed(9, 1.0);
        let b = distributed(9, 1.0);
        assert_eq!(a.honeypots[0].fixed_files, b.honeypots[0].fixed_files);
        assert!(
            (a.population.rate_per_popularity - b.population.rate_per_popularity).abs() < 1e-12
        );
    }

    /// The seed search the one-pass pick replaces: sort by descending
    /// popularity, then take the nearest remaining file `k` times.  Stable
    /// sort, so equal popularities stay in index order (the one-pass
    /// pick's last tie rule).
    fn nearest_by_sorting(
        n: u32,
        popularity: impl Fn(u32) -> f64,
        target: f64,
        k: usize,
    ) -> Vec<u32> {
        let mut ranked: Vec<u32> = (0..n).collect();
        ranked.sort_by(|&a, &b| popularity(b).partial_cmp(&popularity(a)).expect("finite"));
        let mut picked = Vec::with_capacity(k);
        for _ in 0..k.min(n as usize) {
            let best = ranked
                .iter()
                .copied()
                .filter(|i| !picked.contains(i))
                .min_by(|&a, &b| {
                    let da = (popularity(a) - target).abs();
                    let db = (popularity(b) - target).abs();
                    da.partial_cmp(&db).expect("finite")
                })
                .expect("k ≤ n");
            picked.push(best);
        }
        picked
    }

    #[test]
    fn one_pass_seed_pick_matches_the_sorted_search() {
        for seed in 0..24u64 {
            let mut rng = netsim::Rng::seed_from(seed);
            let config = CatalogConfig {
                n_files: rng.range(1, 20_001) as usize,
                zipf_exponent: rng.f64(),
                popularity_sigma: 1.5 * rng.f64(),
                hit_count: rng.below(6) as usize,
                hit_multiplier: 1.0 + 20.0 * rng.f64(),
                dead_fraction: 0.5 * rng.f64(),
                dead_multiplier: 0.01 * rng.f64(),
                ..CatalogConfig::default()
            };
            let catalog = CatalogDraws::generate(&config, &mut rng);
            let n = catalog.len() as u32;
            let pops: Vec<f64> = (0..n).map(|i| catalog.popularity(i)).collect();
            // Targets at, between and beyond the drawn weights.
            let mut targets = vec![0.0, pops[0], 1e9];
            targets.extend((0..4).map(|_| pops[rng.below(u64::from(n)) as usize] * 1.01));
            for target in targets {
                for k in [1, 3, 7] {
                    assert_eq!(
                        nearest_popularity(n, |i| pops[i as usize], target, k),
                        nearest_by_sorting(n, |i| pops[i as usize], target, k),
                        "seed {seed}, n {n}, target {target:e}, k {k}"
                    );
                }
            }
        }
    }

    #[test]
    fn one_pass_seed_pick_breaks_ties_like_the_sorted_search() {
        let cases: [(&[f64], f64); 5] = [
            // Equal distance on both sides: the more popular file first.
            (&[1.0, 3.0, 2.5, 1.5], 2.0),
            (&[3.0, 1.0, 1.5, 2.5], 2.0),
            // Equal popularity: index order.
            (&[2.0, 5.0, 2.0, 2.0, 0.5], 2.0),
            (&[4.0, 4.0, 4.0, 4.0], 1.0),
            // Both at once.
            (&[1.0, 3.0, 1.0, 3.0, 2.0], 2.0),
        ];
        for (pops, target) in cases {
            for k in 1..=pops.len() {
                let n = pops.len() as u32;
                assert_eq!(
                    nearest_popularity(n, |i| pops[i as usize], target, k),
                    nearest_by_sorting(n, |i| pops[i as usize], target, k),
                    "{pops:?}, target {target}, k {k}"
                );
            }
        }
    }

    #[test]
    fn greedy_seeds_are_pinned() {
        assert_eq!(greedy(DEFAULT_SEED, 0.1).honeypots[0].greedy_seeds, [171457, 220448, 123602]);
    }

    #[test]
    fn scale_reduces_rate_only() {
        let full = greedy(1, 1.0);
        let tenth = greedy(1, 0.1);
        assert!(
            (tenth.population.rate_per_popularity - full.population.rate_per_popularity * 0.1)
                .abs()
                < 1e-9
        );
        assert_eq!(tenth.duration, full.duration);
    }
}
