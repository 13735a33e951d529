//! Peer behaviour: every random decision of the simulated world, as plain
//! functions of the configuration, the peer state they read, the random
//! stream and the clock.
//!
//! [`crate::world`] keeps the effects (provider lookups, message delivery,
//! scheduling, log pushes) and calls in here for each decision with its
//! `rng_behavior` (arrival batches: `rng_arrival`).  The log depends on
//! the order of those calls, so each function states the draws it makes.

use netsim::dist::{exponential, poisson};
use netsim::time::MS_PER_DAY;
use netsim::{Rng, SimTime};

use crate::catalog::Catalog;
use crate::config::ScenarioConfig;
use crate::config::{BehaviorConfig, BlacklistConfig, CrashConfig, PopulationConfig};
use crate::peer::{PeerTable, Session, SessionOutcome};

/// What arrivals choose honeypots by: each one's configured attractiveness
/// and its track record so far.
pub struct Sources {
    pub attract: Vec<f64>,
    /// Detections so far (community-blacklist exposure).
    pub exposure: Vec<u32>,
    /// Sessions that reached part requests / that got any data.
    pub requested: Vec<u64>,
    pub delivered: Vec<u64>,
}

impl Sources {
    pub fn new(attract: Vec<f64>) -> Self {
        let n = attract.len();
        Sources { attract, exposure: vec![0; n], requested: vec![0; n], delivered: vec![0; n] }
    }

    /// Community-blacklist skip probability of honeypot `hp`: a saturating
    /// function of its detections.
    fn skip_prob(&self, b: &BlacklistConfig, hp: u8) -> f64 {
        let d = f64::from(self.exposure[hp as usize]);
        if b.skip_cap <= 0.0 {
            return 0.0;
        }
        b.skip_cap * d / (d + b.halfway_detections.max(1.0))
    }

    /// Selection weight of honeypot `hp`: attractiveness times the
    /// source-quality bonus (delivering sources circulate via peer exchange).
    fn weight(&self, bonus: f64, hp: u8) -> f64 {
        let h = hp as usize;
        let ratio = self.delivered[h] as f64 / (self.requested[h] + 1) as f64;
        self.attract[h] * (1.0 + bonus * ratio)
    }
}

/// How many peers arrive in the tick starting at `now`, given the total
/// `popularity` of the advertised files: Poisson around the rate, decayed
/// per day and modulated by the diurnal curve (Figs. 2 and 4).  One
/// `poisson`.
pub fn arrival_count(p: &PopulationConfig, popularity: f64, rng: &mut Rng, now: SimTime) -> u64 {
    let decay = p.daily_decay.powi(now.day_index() as i32);
    let diurnal = p.diurnal.multiplier(now, p.local_offset_hours);
    let rate = p.rate_per_popularity * popularity * decay * diurnal / MS_PER_DAY as f64;
    poisson(rng, rate * p.arrival_tick_ms as f64)
}

/// When within its tick an arrival starts its first round.  One `below`.
pub fn arrival_offset(p: &PopulationConfig, rng: &mut Rng) -> u64 {
    rng.below(p.arrival_tick_ms)
}

/// The files a new peer wants: a geometric count of draws, each mapped to
/// an advertised file by `pick` (popularity-weighted), duplicates dropped.
pub fn wanted_files(
    p: &PopulationConfig,
    mut pick: impl FnMut(f64) -> Option<u32>,
    rng: &mut Rng,
) -> Vec<u32> {
    let n = 1 + geometric(rng, p.wanted_files_mean - 1.0);
    let mut wanted = Vec::with_capacity(n as usize);
    for _ in 0..n {
        if let Some(ci) = pick(rng.f64()) {
            if !wanted.contains(&ci) {
                wanted.push(ci);
            }
        }
    }
    wanted
}

/// The providers a new peer will contact, out of `candidates` (the live
/// providers of its wanted files): each survives the community blacklist
/// with one `chance`; then, unless none is left, one `chance` makes an
/// all-providers client, else a geometric-size subset is drawn by source
/// weight.  Empty when the peer is invisible.
pub fn providers(
    config: &ScenarioConfig,
    sources: &Sources,
    mut candidates: Vec<u8>,
    rng: &mut Rng,
) -> Vec<u8> {
    candidates.retain(|&hp| !rng.chance(sources.skip_prob(&config.blacklist, hp)));
    let b = &config.behavior;
    if candidates.is_empty() || rng.chance(b.subset_all_prob) {
        return candidates;
    }
    let k = 1 + geometric(rng, b.subset_mean - 1.0) as usize;
    let bonus = config.blacklist.source_quality_bonus;
    weighted_distinct(rng, candidates, |hp| sources.weight(bonus, hp), k)
}

/// A new peer's lasting traits.
pub struct Traits {
    pub shares_list: bool,
    /// Probe-only clients (PEX crawlers, source checkers) greet sources but
    /// never request uploads: why Fig. 6 tops well below Fig. 5.
    pub probe_only: bool,
    /// Catalog indices of the files it shares (empty unless `shares_list`).
    pub shared_files: Vec<u32>,
    pub interest_until: SimTime,
}

/// Draws a new peer's [`Traits`]: two `chance`s, the shared list when it
/// shares one, then its exponential interest lifetime (at least a minute).
pub fn traits(config: &ScenarioConfig, catalog: &Catalog, rng: &mut Rng, now: SimTime) -> Traits {
    let (p, b) = (&config.population, &config.behavior);
    let shares_list = rng.chance(p.share_list_prob);
    let probe_only = rng.chance(b.hello_only_prob);
    let mut shared_files = Vec::new();
    if shares_list {
        let n = 1 + geometric(rng, p.shared_list_mean - 1.0);
        catalog.sample_distinct_by_popularity(rng, n as usize, &mut shared_files);
    }
    let life_ms = exponential(rng, 1.0 / b.interest_mean_ms as f64) as u64;
    let interest_until = now.plus_millis(life_ms.max(60_000));
    Traits { shares_list, probe_only, shared_files, interest_until }
}

/// A retry round's contact order: `peer`'s providers it has not
/// blacklisted, shuffled into `order`.
pub fn contact_order(peers: &PeerTable, peer: u32, rng: &mut Rng, order: &mut Vec<u8>) {
    order.clear();
    order.extend(peers.providers(peer).iter().filter(|&&hp| !peers.is_blacklisted(peer, hp)));
    rng.shuffle(order);
}

/// The diurnal round gate: users follow the daily rhythm in their retries
/// too (the client is off at night), so a round due at `now` runs with
/// probability `diurnal(now) / peak`, else it is deferred by 45–90 min
/// (returned).  This carries Fig. 4's oscillation into the query volume.
pub fn round_deferral(p: &PopulationConfig, rng: &mut Rng, now: SimTime) -> Option<u64> {
    let gate = p.diurnal.multiplier(now, p.local_offset_hours) / (1.0 + p.diurnal.amplitude);
    (!rng.chance(gate)).then(|| 45 * 60_000 + rng.below(45 * 60_000))
}

/// Opens a session of `peer` with the provider at its round's position:
/// one of its wanted files, whether to go on to part requests (always in
/// the first round, then by `chance`: later rounds are mostly re-polls)
/// and the part-request budget.  The connection is the caller's to fill in.
pub fn open_session(b: &BehaviorConfig, peers: &PeerTable, peer: u32, rng: &mut Rng) -> Session {
    let wanted = peers.wanted(peer);
    let file = wanted[rng.below(wanted.len() as u64) as usize];
    let do_request = peers.rounds(peer) == 0 || rng.chance(b.retry_request_prob);
    let budget = (1 + geometric(rng, b.rc_budget_mean - 1.0)).min(60) as u8;
    let hp = peers.order(peer)[peers.pos(peer) as usize];
    Session { hp, file, budget, do_request, ..Session::default() }
}

/// What a session does after a part request.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Next {
    Finish(SessionOutcome),
    /// Request again after this many ms.
    Wait(u64),
}

/// Books a part request's answer (`got_data`) in `s` and decides the next
/// step.  A session ends when its budget is spent on data or after
/// `nc_timeouts_to_fail` silences in a row, with one `chance` of detection
/// (corrupt content is caught less often than silence, paper §IV-B);
/// otherwise it waits one [`pace`].
pub fn after_request(b: &BehaviorConfig, s: &mut Session, got_data: bool, rng: &mut Rng) -> Next {
    let (over, detect_prob) = if got_data {
        s.delivered = true;
        s.timeouts = 0;
        s.block_cursor += 3;
        s.budget = s.budget.saturating_sub(1);
        (s.budget == 0, b.rc_detect_prob)
    } else {
        s.timeouts += 1;
        (u32::from(s.timeouts) >= b.nc_timeouts_to_fail, b.nc_detect_prob)
    };
    if !over {
        return Next::Wait(pace(b.rc_transfer_ms, b.nc_timeout_ms, got_data, rng));
    }
    let detected = rng.chance(detect_prob);
    Next::Finish(if detected { SessionOutcome::Detected } else { SessionOutcome::Inconclusive })
}

/// The pause before a client's next part request: the transfer time (at
/// least 500 ms) when data came back, else its timeout plus up to 2 s of
/// jitter, near-constant (Fig. 9's smooth no-content curve).  One draw.
pub fn pace(rc_transfer_ms: u64, nc_timeout_ms: u64, got_data: bool, rng: &mut Rng) -> u64 {
    if got_data {
        (exponential(rng, 1.0 / rc_transfer_ms as f64) as u64).max(500)
    } else {
        nc_timeout_ms + rng.below(2_000)
    }
}

/// The pause between retry rounds (at least a minute).  One `exponential`.
pub fn retry_delay(b: &BehaviorConfig, rng: &mut Rng) -> u64 {
    (exponential(rng, 1.0 / b.retry_interval_ms as f64) as u64).max(60_000)
}

/// A robot's [`pace`] after a part request (with its own patient timeout)
/// and, when that request was the session's `last`, one `chance` that the
/// whole robot goes dark (the plateaus of Figs. 8–9).
pub fn robot_pace(c: &ScenarioConfig, got_data: bool, last: bool, rng: &mut Rng) -> (u64, bool) {
    let pace = pace(c.behavior.rc_transfer_ms, c.robots.nc_timeout_ms, got_data, rng);
    (pace, last && rng.chance(c.robots.off_prob))
}

/// Time to a honeypot's next crash.  One `exponential`.
pub fn crash_delay(c: &CrashConfig, rng: &mut Rng) -> u64 {
    exponential(rng, 1.0 / c.mtbf_ms as f64) as u64
}

/// Geometric sample with the given mean (number of successes before
/// failure); mean 0 yields constant 0 without a draw.
fn geometric(rng: &mut Rng, mean: f64) -> u32 {
    if mean <= 0.0 {
        return 0;
    }
    let p = 1.0 / (1.0 + mean);
    let u = rng.f64_open();
    (u.ln() / (1.0 - p).ln()).floor() as u32
}

/// Takes up to `k` distinct items out of `pool`, each pick weighted by
/// `weight(item)`.  One `f64` per pick.
fn weighted_distinct(
    rng: &mut Rng,
    mut pool: Vec<u8>,
    weight: impl Fn(u8) -> f64,
    k: usize,
) -> Vec<u8> {
    let k = k.min(pool.len());
    let mut out = Vec::with_capacity(k);
    for _ in 0..k {
        let total: f64 = pool.iter().map(|&c| weight(c)).sum();
        let mut x = rng.f64() * total;
        let mut chosen = pool.len() - 1;
        for (i, &c) in pool.iter().enumerate() {
            x -= weight(c);
            if x <= 0.0 {
                chosen = i;
                break;
            }
        }
        out.push(pool.swap_remove(chosen));
    }
    out
}

#[cfg(test)]
mod tests {
    //! Each decision with its branches forced by probabilities of 0.0 or
    //! 1.0 (`chance(p)` is `f64() < p`, so it still draws), and its draw
    //! order pinned by replaying the expected draws on a clone of the stream.

    use super::*;
    use crate::catalog::CatalogConfig;
    use crate::identity::IdentityFactory;
    use crate::peer::{NewPeer, SessionState};
    use netsim::DiurnalCurve;

    /// A stream, and a clone to replay the expected draws on.
    fn pair(seed: u64) -> (Rng, Rng) {
        let rng = Rng::seed_from(seed);
        (rng.clone(), rng)
    }

    /// The function made exactly the replayed draws: both streams are at
    /// the same position.
    fn in_step(rng: &mut Rng, replay: &mut Rng) {
        assert_eq!(rng.next_u64(), replay.next_u64(), "draw order differs from the replay");
    }

    /// Replays `draws` draws whose values the test does not need.
    fn skip(replay: &mut Rng, draws: usize) {
        for _ in 0..draws {
            replay.next_u64();
        }
    }

    /// One peer wanting files 10, 20 and 30 from honeypots 3, 4 and 5.
    fn one_peer() -> PeerTable {
        let mut peers = PeerTable::new();
        peers.push(NewPeer {
            identity: IdentityFactory::new(Rng::seed_from(1)).create(),
            probe_only: false,
            shares_list: false,
            robot: false,
            shared_files: &[],
            wanted: &[10, 20, 30],
            providers: &[3, 4, 5],
            interest_until: SimTime::from_days(1),
        });
        peers
    }

    #[test]
    fn arrival_count_is_one_poisson_at_the_decayed_diurnal_rate() {
        let p = PopulationConfig {
            diurnal: DiurnalCurve::flat(),
            daily_decay: 0.5,
            ..Default::default()
        };
        let (mut rng, mut replay) = pair(1);
        let n = arrival_count(&p, 2.0, &mut rng, SimTime::from_days(1));
        let rate = p.rate_per_popularity * 2.0 * 0.5 / MS_PER_DAY as f64;
        assert_eq!(n, poisson(&mut replay, rate * p.arrival_tick_ms as f64));
        assert!(n > 0);
        in_step(&mut rng, &mut replay);
        // Nothing advertised: nobody arrives, and nothing is drawn.
        assert_eq!(arrival_count(&p, 0.0, &mut rng, SimTime::ZERO), 0);
        in_step(&mut rng, &mut replay);
        let offset = arrival_offset(&p, &mut rng);
        assert_eq!(offset, replay.below(p.arrival_tick_ms));
        in_step(&mut rng, &mut replay);
    }

    #[test]
    fn wanted_files_draw_a_count_then_one_pick_each_and_drop_duplicates() {
        let p = PopulationConfig { wanted_files_mean: 4.0, ..Default::default() };
        let (mut rng, mut replay) = pair(2);
        let mut picked = Vec::new();
        let pick = |u: f64| {
            picked.push(u);
            (u < 0.7).then_some(7)
        };
        let wanted = wanted_files(&p, pick, &mut rng);
        let n = 1 + geometric(&mut replay, 3.0);
        let draws: Vec<f64> = (0..n).map(|_| replay.f64()).collect();
        assert_eq!(picked, draws);
        assert_eq!(wanted, if draws.iter().any(|&u| u < 0.7) { vec![7] } else { vec![] });
        in_step(&mut rng, &mut replay);
        // A mean of one wants exactly one file: a single pick, no count draw.
        let p = PopulationConfig { wanted_files_mean: 1.0, ..p };
        assert_eq!(wanted_files(&p, |_| Some(3), &mut rng), vec![3]);
        replay.f64();
        in_step(&mut rng, &mut replay);
        assert!(wanted_files(&p, |_| None, &mut rng).is_empty());
    }

    #[test]
    fn providers_skip_blacklisted_sources_then_pick_all_or_a_weighted_subset() {
        let mut config = ScenarioConfig::tiny(1);
        let mut sources = Sources::new(vec![1.0, 0.0, 0.0]);
        sources.exposure = vec![u32::MAX; 3];
        let (mut rng, mut replay) = pair(3);

        // Community blacklist off (`skip_cap = 0`, the mechanism ablated):
        // every candidate survives, and an all-providers client keeps them.
        config.blacklist.skip_cap = 0.0;
        config.behavior.subset_all_prob = 1.0;
        assert_eq!(providers(&config, &sources, vec![2, 0, 1], &mut rng), vec![2, 0, 1]);
        skip(&mut replay, 4);
        in_step(&mut rng, &mut replay);

        // A subset client of mean one takes one provider by weight: only
        // honeypot 0 weighs anything.
        config.behavior.subset_all_prob = 0.0;
        config.behavior.subset_mean = 1.0;
        assert_eq!(providers(&config, &sources, vec![2, 1, 0], &mut rng), vec![0]);
        skip(&mut replay, 5);
        in_step(&mut rng, &mut replay);

        // Every candidate skipped (a skip probability of at least one): the
        // peer is invisible, and no subset is drawn.
        config.blacklist =
            BlacklistConfig { skip_cap: 2.0, halfway_detections: 1.0, ..config.blacklist };
        assert!(sources.skip_prob(&config.blacklist, 0) >= 1.0);
        assert!(providers(&config, &sources, vec![0, 1], &mut rng).is_empty());
        skip(&mut replay, 2);
        in_step(&mut rng, &mut replay);
        // Below the cap the skip saturates towards it with the detections.
        config.blacklist.skip_cap = 0.5;
        sources.exposure[1] = 1;
        assert_eq!(sources.skip_prob(&config.blacklist, 1), 0.25);
    }

    /// The calibrated probabilities, where no branch is forced: the
    /// outcome over many peers matches a replay of the documented draws.
    #[test]
    fn providers_draw_in_the_documented_order() {
        let mut config = ScenarioConfig::tiny(1);
        config.blacklist =
            BlacklistConfig { skip_cap: 0.9, halfway_detections: 1_000.0, ..config.blacklist };
        let mut sources = Sources::new(vec![1.0, 2.0, 0.5, 1.5]);
        sources.exposure = vec![30_000, 2_000, 90_000, 10_000];
        sources.requested = vec![10, 10, 10, 10];
        sources.delivered = vec![0, 10, 5, 0];
        let (mut rng, mut replay) = pair(12);
        let (b, bl) = (&config.behavior, &config.blacklist);
        let mut shapes = [0; 3];
        for _ in 0..200 {
            let got = providers(&config, &sources, vec![0, 1, 2, 3], &mut rng);
            let mut expected: Vec<u8> =
                (0..4).filter(|&hp| !replay.chance(sources.skip_prob(bl, hp))).collect();
            if !expected.is_empty() && !replay.chance(b.subset_all_prob) {
                let k = 1 + geometric(&mut replay, b.subset_mean - 1.0) as usize;
                let weight = |hp| sources.weight(bl.source_quality_bonus, hp);
                expected = weighted_distinct(&mut replay, expected, weight, k);
            }
            assert_eq!(got, expected);
            shapes[got.len().min(2)] += 1;
        }
        in_step(&mut rng, &mut replay);
        assert!(
            shapes.iter().all(|&n| n > 0),
            "invisible, single and multi-provider peers: {shapes:?}"
        );
    }

    #[test]
    fn source_quality_bonus_weighs_delivering_sources_up() {
        let mut sources = Sources::new(vec![2.0, 2.0]);
        sources.requested = vec![9, 9];
        sources.delivered = vec![9, 0];
        assert_eq!(sources.weight(0.0, 0), 2.0, "no bonus: attractiveness alone");
        assert_eq!(sources.weight(1.0, 0), 2.0 * (1.0 + 0.9));
        assert_eq!(sources.weight(1.0, 1), 2.0, "a silent source gets no bonus");
    }

    #[test]
    fn traits_draw_sharing_probe_only_list_and_lifetime_in_order() {
        let catalog = Catalog::generate(
            &CatalogConfig { n_files: 100, ..Default::default() },
            &mut Rng::seed_from(9),
        );
        let (mut rng, mut replay) = pair(4);
        // Both traits at a probability between the two draws, so they come
        // out opposite and their order shows.
        let (first, second) = (replay.clone().f64(), {
            let mut r = replay.clone();
            r.f64();
            r.f64()
        });
        let mut config = ScenarioConfig::tiny(1);
        config.population.share_list_prob = (first + second) / 2.0;
        config.behavior.hello_only_prob = (first + second) / 2.0;
        let now = SimTime::from_hours(5);
        let t = traits(&config, &catalog, &mut rng, now);
        assert_eq!((t.shares_list, t.probe_only), (first < second, second < first));
        assert!(t.shares_list, "seed 4 shares a list, so the list draws are pinned too");
        replay.f64();
        replay.f64();
        let n = 1 + geometric(&mut replay, config.population.shared_list_mean - 1.0);
        let mut shared = Vec::new();
        catalog.sample_distinct_by_popularity(&mut replay, n as usize, &mut shared);
        assert_eq!(t.shared_files, shared);
        let life = exponential(&mut replay, 1.0 / config.behavior.interest_mean_ms as f64) as u64;
        assert_eq!(t.interest_until, now.plus_millis(life.max(60_000)));
        in_step(&mut rng, &mut replay);

        // No list, probe-only, and the one-minute floor on interest.
        config.population.share_list_prob = 0.0;
        config.behavior.hello_only_prob = 1.0;
        config.behavior.interest_mean_ms = 1;
        let t = traits(&config, &catalog, &mut rng, now);
        assert!(!t.shares_list && t.probe_only && t.shared_files.is_empty());
        assert_eq!(t.interest_until, now.plus_millis(60_000));
        skip(&mut replay, 3);
        in_step(&mut rng, &mut replay);
    }

    #[test]
    fn contact_order_shuffles_the_providers_not_blacklisted() {
        let mut peers = one_peer();
        peers.blacklist_hp(0, 4);
        let (mut rng, mut replay) = pair(5);
        let mut order = vec![9; 7];
        contact_order(&peers, 0, &mut rng, &mut order);
        let mut expected = vec![3, 5];
        replay.shuffle(&mut expected);
        assert_eq!(order, expected);
        in_step(&mut rng, &mut replay);
    }

    #[test]
    fn round_gate_never_defers_when_flat_and_always_at_a_zero_trough() {
        let (mut rng, mut replay) = pair(6);
        // The diurnal mechanism ablated: every round runs on time.
        let flat = PopulationConfig { diurnal: DiurnalCurve::flat(), ..Default::default() };
        for h in 0..24 {
            assert_eq!(round_deferral(&flat, &mut rng, SimTime::from_hours(h)), None);
            replay.f64();
        }
        in_step(&mut rng, &mut replay);
        // A curve that touches zero at 03:00 defers every round due then,
        // by 45 to 90 minutes.
        let deep = DiurnalCurve { peak_hour: 15.0, amplitude: 1.0 };
        let p = PopulationConfig { diurnal: deep, ..Default::default() };
        let delay = round_deferral(&p, &mut rng, SimTime::from_hours(3)).expect("deferred");
        replay.f64();
        assert_eq!(delay, 45 * 60_000 + replay.below(45 * 60_000));
        in_step(&mut rng, &mut replay);
        // At the peak of that curve the gate is open.
        assert_eq!(round_deferral(&p, &mut rng, SimTime::from_hours(15)), None);
    }

    #[test]
    fn open_session_picks_file_request_and_budget_in_order() {
        let mut peers = one_peer();
        peers.set_order(0, &[5, 3]);
        peers.bump_pos(0);
        let mut b = BehaviorConfig { retry_request_prob: 0.0, ..Default::default() };
        let (mut rng, mut replay) = pair(7);
        // First round: the download is always attempted, with no draw.
        let s = open_session(&b, &peers, 0, &mut rng);
        assert_eq!(s.hp, 3, "the provider at the round's position");
        assert_eq!(s.file, [10, 20, 30][replay.below(3) as usize]);
        assert!(s.do_request);
        assert_eq!(s.budget, (1 + geometric(&mut replay, b.rc_budget_mean - 1.0)).min(60) as u8);
        assert_eq!(
            (s.state, s.timeouts, s.block_cursor, s.delivered),
            (SessionState::Greet, 0, 0, false)
        );
        in_step(&mut rng, &mut replay);
        // Later rounds request by `chance`; the budget is capped at 60.
        peers.bump_rounds(0);
        b.rc_budget_mean = 1e9;
        let s = open_session(&b, &peers, 0, &mut rng);
        assert!(!s.do_request);
        assert_eq!(s.budget, 60);
        skip(&mut replay, 3);
        in_step(&mut rng, &mut replay);
        b.retry_request_prob = 1.0;
        assert!(open_session(&b, &peers, 0, &mut rng).do_request);
    }

    #[test]
    fn after_request_paces_until_budget_or_patience_runs_out() {
        let mut b = BehaviorConfig { nc_timeouts_to_fail: 2, ..Default::default() };
        let (mut rng, mut replay) = pair(8);
        let mut s = Session { budget: 2, timeouts: 1, ..Session::default() };
        // Data: the budget shrinks and the session waits one transfer.
        let next = after_request(&b, &mut s, true, &mut rng);
        assert_eq!(next, Next::Wait(pace(b.rc_transfer_ms, b.nc_timeout_ms, true, &mut replay)));
        assert_eq!((s.budget, s.timeouts, s.block_cursor, s.delivered), (1, 0, 3, true));
        in_step(&mut rng, &mut replay);
        // Budget spent: one detection draw decides the verdict.
        for (prob, outcome) in
            [(1.0, SessionOutcome::Detected), (0.0, SessionOutcome::Inconclusive)]
        {
            b.rc_detect_prob = prob;
            let mut spent = s;
            assert_eq!(after_request(&b, &mut spent, true, &mut rng), Next::Finish(outcome));
            assert_eq!(spent.budget, 0);
            replay.f64();
            in_step(&mut rng, &mut replay);
        }
        // Silence: wait one timeout, then give up at the second.
        let next = after_request(&b, &mut s, false, &mut rng);
        assert_eq!(next, Next::Wait(b.nc_timeout_ms + replay.below(2_000)));
        assert_eq!(s.timeouts, 1);
        in_step(&mut rng, &mut replay);
        for (prob, outcome) in
            [(1.0, SessionOutcome::Detected), (0.0, SessionOutcome::Inconclusive)]
        {
            b.nc_detect_prob = prob;
            let mut patient = s;
            assert_eq!(after_request(&b, &mut patient, false, &mut rng), Next::Finish(outcome));
            replay.f64();
            in_step(&mut rng, &mut replay);
        }
    }

    #[test]
    fn pace_is_the_transfer_with_data_and_the_timeout_without() {
        let (mut rng, mut replay) = pair(9);
        let got = pace(9_000, 45_000, true, &mut rng);
        assert_eq!(got, (exponential(&mut replay, 1.0 / 9_000.0) as u64).max(500));
        in_step(&mut rng, &mut replay);
        assert_eq!(pace(1, 45_000, true, &mut rng), 500, "floor of a fast transfer");
        replay.f64();
        let silent = pace(9_000, 45_000, false, &mut rng);
        assert_eq!(silent, 45_000 + replay.below(2_000));
        assert!((45_000..47_000).contains(&silent));
        in_step(&mut rng, &mut replay);
    }

    #[test]
    fn robot_pace_uses_the_robot_timeout_and_draws_the_off_period_last() {
        let mut config = ScenarioConfig::tiny(1);
        config.robots.off_prob = 1.0;
        let (mut rng, mut replay) = pair(10);
        // Mid-session: one pace draw, no off draw.
        let (got, off) = robot_pace(&config, false, false, &mut rng);
        assert_eq!(got, config.robots.nc_timeout_ms + replay.below(2_000));
        assert!(!off);
        in_step(&mut rng, &mut replay);
        // Session over: the off period is drawn after the pace.
        let (got, off) = robot_pace(&config, true, true, &mut rng);
        let transfer = config.behavior.rc_transfer_ms;
        assert_eq!(got, pace(transfer, 0, true, &mut replay));
        assert!(off);
        replay.f64();
        in_step(&mut rng, &mut replay);
        config.robots.off_prob = 0.0;
        assert!(!robot_pace(&config, true, true, &mut rng).1);
    }

    #[test]
    fn retry_and_crash_delays_are_one_exponential_each() {
        let (mut rng, mut replay) = pair(11);
        let b = BehaviorConfig::default();
        let retry = retry_delay(&b, &mut rng);
        let expected = exponential(&mut replay, 1.0 / b.retry_interval_ms as f64) as u64;
        assert_eq!(retry, expected.max(60_000));
        in_step(&mut rng, &mut replay);
        let short = BehaviorConfig { retry_interval_ms: 1, ..b };
        assert_eq!(retry_delay(&short, &mut rng), 60_000, "at least a minute");
        replay.f64();
        let crash = CrashConfig { mtbf_ms: 3_600_000 };
        let delay = crash_delay(&crash, &mut rng);
        assert_eq!(delay, exponential(&mut replay, 1.0 / 3_600_000.0) as u64);
        in_step(&mut rng, &mut replay);
    }

    #[test]
    fn geometric_mean_approximately_right() {
        let mut rng = Rng::seed_from(1);
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| f64::from(geometric(&mut rng, 3.0))).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.15, "mean {mean}");
        assert_eq!(geometric(&mut rng, 0.0), 0);
    }

    #[test]
    fn weighted_distinct_is_distinct_and_biased() {
        let mut rng = Rng::seed_from(2);
        let weights = [10.0, 1.0, 1.0, 1.0];
        let mut count0 = 0;
        for _ in 0..2_000 {
            let s = weighted_distinct(&mut rng, vec![0, 1, 2, 3], |c| weights[c as usize], 2);
            assert_eq!(s.len(), 2);
            assert_ne!(s[0], s[1]);
            if s.contains(&0) {
                count0 += 1;
            }
        }
        assert!(count0 > 1_500, "heavy item picked in {count0}/2000 pairs");
    }
}
