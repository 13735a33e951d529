//! Scenario configuration: every behavioural knob of the simulated eDonkey
//! world, with defaults calibrated against the paper's published curves.
//!
//! The measurement platform itself (crate `honeypot`) has no tunables beyond
//! its strategies; everything here parameterises the *synthetic network* the
//! platform is immersed in.  `edonkey-experiments` ships two calibrated
//! instances (the *distributed* and *greedy* scenarios); the ablation
//! benches perturb individual knobs.

use honeypot::strategy::ContentStrategy;
use netsim::time::{MS_PER_HOUR, MS_PER_MIN, MS_PER_SEC};
use netsim::{DiurnalCurve, SimTime};

use crate::catalog::CatalogConfig;

/// How one honeypot is set up within a scenario.
#[derive(Clone, Debug)]
pub struct HoneypotSetup {
    pub content: ContentStrategy,
    /// Catalog indices of the fixed advertised files, or `None` for greedy.
    pub fixed_files: Option<Vec<u32>>,
    /// Greedy parameters (used when `fixed_files` is `None`).
    pub greedy_seeds: Vec<u32>,
    pub greedy_adopt_until: SimTime,
    pub greedy_max_files: usize,
    /// Relative attractiveness weight: how likely peers are to include this
    /// honeypot in their provider subset (heterogeneity behind the min/max
    /// spread at n = 1 in Fig. 10).
    pub attractiveness: f64,
}

impl HoneypotSetup {
    /// A fixed-list honeypot.
    pub fn fixed(content: ContentStrategy, files: Vec<u32>, attractiveness: f64) -> Self {
        HoneypotSetup {
            content,
            fixed_files: Some(files),
            greedy_seeds: Vec::new(),
            greedy_adopt_until: SimTime::ZERO,
            greedy_max_files: 0,
            attractiveness,
        }
    }

    /// A greedy honeypot.
    pub fn greedy(seeds: Vec<u32>, adopt_until: SimTime, max_files: usize) -> Self {
        HoneypotSetup {
            content: ContentStrategy::NoContent,
            fixed_files: None,
            greedy_seeds: seeds,
            greedy_adopt_until: adopt_until,
            greedy_max_files: max_files,
            attractiveness: 1.0,
        }
    }
}

/// Peer arrival process.
#[derive(Clone, Copy, Debug)]
pub struct PopulationConfig {
    /// Expected new interested peers per day *per unit of advertised
    /// popularity mass* (see `Catalog::popularity_sum`).  The instantaneous
    /// arrival rate is `rate_per_popularity × popularity_sum(advertised) ×
    /// diurnal(t) × decay(day)`.
    pub rate_per_popularity: f64,
    /// Daily multiplicative decay of interest in the advertised files
    /// (Fig. 2: new-peers-per-day shrinks over a month as popularity
    /// fades).  1.0 = no decay.
    pub daily_decay: f64,
    /// Day/night modulation (Fig. 4).
    pub diurnal: DiurnalCurve,
    /// Offset between simulation hour 0 and the dominant user population's
    /// local clock.
    pub local_offset_hours: f64,
    /// Mean number of advertised files a peer wants (≥ 1; geometric).
    pub wanted_files_mean: f64,
    /// Probability a peer exposes its shared-file list when asked (the
    /// feature "can be disabled by the user", paper §III-B).
    pub share_list_prob: f64,
    /// Mean length of a peer's shared list (geometric, ≥ 1).
    pub shared_list_mean: f64,
    /// Width of the arrival batching tick.
    pub arrival_tick_ms: u64,
}

impl Default for PopulationConfig {
    fn default() -> Self {
        PopulationConfig {
            rate_per_popularity: 1_000.0,
            daily_decay: 0.979,
            diurnal: DiurnalCurve::european(),
            local_offset_hours: 0.0,
            wanted_files_mean: 1.3,
            share_list_prob: 0.35,
            shared_list_mean: 12.0,
            arrival_tick_ms: 5 * MS_PER_MIN,
        }
    }
}

/// Download behaviour of genuine peers.
#[derive(Clone, Copy, Debug)]
pub struct BehaviorConfig {
    /// Probability a session stops after HELLO (alive-probe / PEX-style
    /// contacts) — the gap between Fig. 5 and Fig. 6 magnitudes.
    pub hello_only_prob: f64,
    /// Mean size of the provider subset a normal peer contacts (geometric,
    /// ≥ 1, capped at the provider count).
    pub subset_mean: f64,
    /// Probability a peer is a "contact everything" client (robots aside):
    /// its subset is all providers.
    pub subset_all_prob: f64,
    /// Mean request timeout against silent sources, ms (paces no-content
    /// sessions; Fig. 9's smooth curve).
    pub nc_timeout_ms: u64,
    /// Consecutive unanswered REQUEST-PARTs before the peer considers the
    /// source dead.
    pub nc_timeouts_to_fail: u32,
    /// Probability that a dead-source experience becomes a *detection*
    /// (client-level blacklist + community exposure).
    pub nc_detect_prob: f64,
    /// Mean per-REQUEST-PARTS service time of a random-content honeypot,
    /// ms (three 180 KB blocks at ADSL rates).
    pub rc_transfer_ms: u64,
    /// Mean number of REQUEST-PARTS a peer issues per random-content
    /// session before losing patience (geometric).
    pub rc_budget_mean: f64,
    /// Probability a random-content session ends in detection (the peer
    /// completed a part and the MD4 check failed).  Lower than
    /// `nc_detect_prob`: corrupt content takes longer to expose than
    /// silence (paper §IV-B).
    pub rc_detect_prob: f64,
    /// Cumulative hard failures after which a peer abandons the file
    /// entirely.
    pub abandon_failures: u32,
    /// Mean pause between retry rounds, ms (eDonkey clients re-poll
    /// sources periodically).
    pub retry_interval_ms: u64,
    /// Mean of the exponential peer interest lifetime, ms.
    pub interest_mean_ms: u64,
    /// Probability a retry-round session proceeds past START-UPLOAD into
    /// part requests (later rounds are mostly source re-polls).
    pub retry_request_prob: f64,
    /// Gap between consecutive provider contacts within a round, ms.
    pub contact_gap_ms: u64,
}

impl Default for BehaviorConfig {
    fn default() -> Self {
        BehaviorConfig {
            hello_only_prob: 0.30,
            subset_mean: 3.2,
            subset_all_prob: 0.10,
            nc_timeout_ms: 45 * MS_PER_SEC,
            nc_timeouts_to_fail: 2,
            nc_detect_prob: 0.85,
            rc_transfer_ms: 9 * MS_PER_SEC,
            rc_budget_mean: 3.0,
            rc_detect_prob: 0.30,
            abandon_failures: 6,
            retry_interval_ms: 75 * MS_PER_MIN,
            interest_mean_ms: 30 * MS_PER_HOUR,
            retry_request_prob: 0.35,
            contact_gap_ms: 2 * MS_PER_SEC,
        }
    }
}

/// Community-level blacklisting (the paper's §IV-B hypothesis: honeypots do
/// get noticed, and faster when they send nothing).
#[derive(Clone, Copy, Debug)]
pub struct BlacklistConfig {
    /// Asymptotic skip probability: the community never blacklists a
    /// honeypot completely (new users keep arriving), so the skip
    /// saturates at this value.
    pub skip_cap: f64,
    /// Detections at which the skip reaches half its cap
    /// (`skip = cap · d / (d + halfway)`).  Honeypots detected more often
    /// — the no-content ones, whose silence is quick and unambiguous —
    /// climb this curve faster, which is what separates the two groups'
    /// distinct-peer counts in Figs. 5–6.
    pub halfway_detections: f64,
    /// Preference for sources that actually deliver data: a honeypot's
    /// selection weight is multiplied by `1 + bonus × delivery_ratio`.
    /// Sources that answer get re-shared through peer exchange and stay in
    /// client source caches; silent ones quietly age out — the paper's
    /// "implicit blacklisting at client level" acting from day one.
    pub source_quality_bonus: f64,
}

impl Default for BlacklistConfig {
    fn default() -> Self {
        BlacklistConfig { skip_cap: 0.5, halfway_detections: 40_000.0, source_quality_bonus: 0.35 }
    }
}

/// Heavy-tail automated clients (the paper's "top peer" in Figs. 8–9 sends
/// queries back-to-back for a month, with occasional silent periods).
///
/// A robot runs one *independent* query chain per honeypot: finish a
/// session, wait out the lockout, start the next.  Sessions against silent
/// sources last `nc_timeout_ms × budget` instead of the transfer time, so
/// no-content honeypots accumulate fewer queries per day from the same
/// peer — the pacing difference of Figs. 8–9.
#[derive(Clone, Copy, Debug)]
pub struct RobotConfig {
    /// Number of robot peers (0 disables the feature).
    pub count: usize,
    /// REQUEST-PARTS per session.
    pub budget: u32,
    /// How long a robot waits on an unanswered part request (automated
    /// clients are patient).
    pub nc_timeout_ms: u64,
    /// Pause between consecutive sessions against the same source.
    pub lockout_ms: u64,
    /// Probability that a finished session sends the whole robot into an
    /// off period (the plateaus of Figs. 8–9).
    pub off_prob: f64,
    /// Off-period duration, ms.
    pub off_duration_ms: u64,
}

impl Default for RobotConfig {
    fn default() -> Self {
        RobotConfig {
            count: 4,
            budget: 2,
            nc_timeout_ms: 12 * MS_PER_MIN,
            lockout_ms: 100 * MS_PER_MIN,
            off_prob: 0.000_4,
            off_duration_ms: 36 * MS_PER_HOUR,
        }
    }
}

/// Server-side capture: the "ten weeks in the life of an eDonkey server"
/// modality.  When set, the simulated index server logs every query it
/// handles (login, offer-files, search, get-sources, disconnect, plus
/// periodic status snapshots) through the streaming compressed
/// `honeypot::serverlog` writer.
///
/// Only behavioural knobs live here — the capture *directory* is a
/// property of the machine running the scenario, not of the scenario
/// itself, so it stays out of the config (and out of the run-cache
/// content address) and is supplied to `run_scenario_with_capture`
/// directly.
#[derive(Clone, Copy, Debug)]
pub struct ServerCaptureConfig {
    /// Records per compressed frame (the writer's only in-memory buffer;
    /// bounds capture RSS).
    pub frame_records: usize,
    /// Bytes per segment file before rotation (the capture spool's
    /// segment size).
    pub segment_bytes: u64,
    /// Period of server STATUS self-snapshots, ms (the users/files curve
    /// of the server-side paper).
    pub status_interval_ms: u64,
}

impl Default for ServerCaptureConfig {
    fn default() -> Self {
        ServerCaptureConfig {
            frame_records: 4_096,
            segment_bytes: 16 << 20,
            status_interval_ms: 30 * MS_PER_MIN,
        }
    }
}

/// Failure injection: honeypot crashes that the manager must notice and
/// repair (exercises the relaunch path end-to-end).
#[derive(Clone, Copy, Debug)]
pub struct CrashConfig {
    /// Mean time between crashes per honeypot, ms (exponential).
    pub mtbf_ms: u64,
}

/// Which pending-event queue drives the engine.
///
/// All three queues are observably identical (`determinism.rs` in this
/// crate's tests asserts byte-identical measurement logs), so this is
/// purely a performance knob: the calendar queue wins on the simulator's
/// tightly-clustered retry/keepalive traffic, the timing wheel wins on
/// million-peer populations where pending-event counts make per-operation
/// `log n` visible, and the heap is the safe general-purpose default.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum QueueKind {
    /// Binary heap ([`netsim::EventQueue`]).
    #[default]
    Heap,
    /// Bucketed calendar queue ([`netsim::CalendarQueue`]), sized for one
    /// day of one-minute buckets.
    Calendar,
    /// Hierarchical timing wheel ([`netsim::TimingWheel`]), amortised
    /// O(1) push/pop with a per-event scheduling horizon.
    Wheel,
}

/// The full scenario.
#[derive(Clone, Debug)]
pub struct ScenarioConfig {
    /// Master seed; every random choice derives from it.
    pub seed: u64,
    /// Measurement horizon.
    pub duration: SimTime,
    pub catalog: CatalogConfig,
    pub honeypots: Vec<HoneypotSetup>,
    pub population: PopulationConfig,
    pub behavior: BehaviorConfig,
    pub blacklist: BlacklistConfig,
    pub robots: RobotConfig,
    pub crashes: Option<CrashConfig>,
    /// Server-side query capture (`None` = the classic honeypot-only
    /// measurement; `Some` additionally records the server's view through
    /// `honeypot::serverlog` — observation only, the honeypot log is
    /// bit-identical either way).
    pub server_capture: Option<ServerCaptureConfig>,
    /// Manager status-check period.
    pub manager_check_ms: u64,
    /// Log-collection period.
    pub collect_ms: u64,
    /// OFFER-FILES keep-alive period.
    pub keepalive_ms: u64,
    /// Word-frequency threshold of the file-name anonymiser.
    pub name_threshold: u32,
    /// Engine queue selection (performance only; results are identical).
    pub queue: QueueKind,
}

impl ScenarioConfig {
    /// A minimal scenario around a single no-content honeypot advertising
    /// catalog file 0 — the base for unit tests and doc examples.
    pub fn tiny(seed: u64) -> Self {
        ScenarioConfig {
            seed,
            duration: SimTime::from_days(2),
            catalog: CatalogConfig { n_files: 200, ..Default::default() },
            honeypots: vec![HoneypotSetup::fixed(ContentStrategy::NoContent, vec![0], 1.0)],
            population: PopulationConfig { rate_per_popularity: 2_000.0, ..Default::default() },
            behavior: BehaviorConfig::default(),
            blacklist: BlacklistConfig::default(),
            robots: RobotConfig { count: 1, ..Default::default() },
            crashes: None,
            server_capture: None,
            manager_check_ms: 10 * MS_PER_MIN,
            collect_ms: 6 * MS_PER_HOUR,
            keepalive_ms: 30 * MS_PER_MIN,
            name_threshold: 3,
            queue: QueueKind::default(),
        }
    }

    /// Scales peer volume by `factor` (shape-preserving quick runs: the
    /// curves keep their form, magnitudes shrink).
    pub fn scaled(mut self, factor: f64) -> Self {
        assert!(factor > 0.0, "scale factor must be positive");
        self.population.rate_per_popularity *= factor;
        self
    }

    /// Generates the exact catalog the world will build for this
    /// configuration (same seed derivation), so scenario builders can pick
    /// concrete files and normalise arrival rates before the run.
    pub fn build_catalog(&self) -> crate::catalog::Catalog {
        self.build_catalog_draws().name()
    }

    /// [`Self::build_catalog`]'s draw pass alone: every file's class, size
    /// and popularity, without the names and ids a builder never reads.
    pub fn build_catalog_draws(&self) -> crate::catalog::CatalogDraws {
        let mut root = netsim::Rng::seed_from(self.seed);
        let mut rng = root.substream("catalog");
        crate::catalog::CatalogDraws::generate(&self.catalog, &mut rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let p = PopulationConfig::default();
        assert!(p.rate_per_popularity > 0.0);
        assert!(p.daily_decay > 0.0 && p.daily_decay <= 1.0);
        assert!(p.share_list_prob >= 0.0 && p.share_list_prob <= 1.0);
        let b = BehaviorConfig::default();
        assert!(b.nc_timeout_ms > b.rc_transfer_ms, "silence must pace slower than transfer");
        assert!(b.nc_detect_prob > b.rc_detect_prob, "silence is detected more reliably");
        assert!(b.hello_only_prob < 1.0);
    }

    #[test]
    fn tiny_scenario_constructs() {
        let s = ScenarioConfig::tiny(7);
        assert_eq!(s.honeypots.len(), 1);
        assert!(s.duration > SimTime::ZERO);
    }

    #[test]
    fn scaling_multiplies_rate() {
        let base = ScenarioConfig::tiny(7);
        let rate = base.population.rate_per_popularity;
        let scaled = base.scaled(0.25);
        assert!((scaled.population.rate_per_popularity - rate * 0.25).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_scale_rejected() {
        let _ = ScenarioConfig::tiny(7).scaled(0.0);
    }

    #[test]
    fn honeypot_setup_constructors() {
        let f = HoneypotSetup::fixed(ContentStrategy::RandomContent, vec![1, 2], 1.3);
        assert_eq!(f.fixed_files.as_deref(), Some(&[1, 2][..]));
        let g = HoneypotSetup::greedy(vec![0], SimTime::from_days(1), 5_000);
        assert!(g.fixed_files.is_none());
        assert_eq!(g.greedy_max_files, 5_000);
    }
}
