//! The simulated eDonkey world: honeypots, manager, index server and a
//! synthetic peer population, driven by the `netsim` discrete-event engine.
//!
//! Design notes:
//!
//! * Only traffic that touches the measurement infrastructure is simulated;
//!   peers that would never contact a honeypot are never allocated.
//! * Honeypot ↔ peer exchanges use the *typed protocol messages* of
//!   `edonkey-proto`, handled by the *actual* [`honeypot::Honeypot`] state
//!   machine — the simulation exercises the same code as the TCP substrate.
//! * A request/response pair is one event: the honeypot's reply is computed
//!   inline and the peer's next move is scheduled after the appropriate
//!   pacing delay (timeout for silence, transfer time for data) — this is
//!   what makes month-scale measurements with ~10⁷ messages tractable.

use edonkey_proto::parts::BLOCK_SIZE;
use edonkey_proto::tags::{special, Tag, TagValue};
use edonkey_proto::{
    ClientServerMessage, FileId, Ipv4, PartRange, PeerAddr, PeerMessage, PublishedFile, SearchExpr,
};
use honeypot::serverlog::{ServerLogStats, SERVER_PEER_SESSION_BASE};
use honeypot::{
    ActionSink, AdvertisedFile, ConnId, ContentStrategy, FileStrategy, Honeypot, HoneypotConfig,
    HoneypotId, HoneypotSpec, IndexServer, IpHasher, LogChunk, Manager, MeasurementLog,
    ServerCapture, ServerInfo, StatusReport, SupervisionBook,
};
use netsim::dist::{exponential, poisson};
use netsim::engine::{Scheduler, World};
use netsim::time::MS_PER_DAY;
use netsim::{CalendarQueue, Engine, EventQueue, PendingQueue, Rng, SimTime, TimingWheel};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::mpsc::{channel, Sender};
use std::thread::JoinHandle;

use crate::catalog::Catalog;
use crate::config::{QueueKind, ScenarioConfig};
use crate::identity::{IdentityFactory, PeerIdentity};
use crate::peer::{NewPeer, PeerTable, Session, SessionOutcome, SessionState, MAX_HONEYPOTS};

/// Events of the eDonkey world.
#[derive(Clone, Copy, Debug)]
pub enum Event {
    /// Spawn the next batch of peer arrivals.
    ArrivalTick,
    /// Advance one peer's session state machine.
    SessionStep { peer: u32 },
    /// Begin a peer's next retry round.
    RoundStart { peer: u32 },
    /// Manager's periodic status check (relaunches dead honeypots).
    ManagerCheck,
    /// Manager's periodic log collection.
    CollectLogs,
    /// Honeypots re-offer their shared lists.
    Keepalive,
    /// Failure injection: kill one honeypot.
    Crash { hp: u8 },
    /// One step of a robot's independent per-honeypot query chain.
    RobotStep { peer: u32, hp: u8, phase: RobotPhase, remaining: u8, conn: u64 },
    /// A robot goes dark for a while (the plateaus of Figs. 8–9).
    RobotOff { peer: u32, duration_ms: u64 },
    /// Periodic SERVER-STATUS self-snapshot, scheduled only when a server
    /// capture is attached (the users/files curve of the server-side
    /// measurement).  Draws no randomness, so attaching a capture leaves
    /// the honeypot measurement bit-identical.
    StatusSample,
}

/// Phase of a robot session (paper Fig. 1 flow, automated client).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RobotPhase {
    Greet,
    Upload,
    Request,
}

/// Aggregate counters for diagnostics and calibration.
#[derive(Clone, Copy, Debug, Default)]
pub struct WorldStats {
    pub arrivals: u64,
    pub skipped_invisible: u64,
    pub sessions: u64,
    pub hello_sent: u64,
    pub start_upload_sent: u64,
    pub request_parts_sent: u64,
    pub detections_nc: u64,
    pub detections_rc: u64,
    pub dead_contacts: u64,
    pub crashes: u64,
}

/// The world state machine.
pub struct EdonkeyWorld {
    pub config: ScenarioConfig,
    pub catalog: Catalog,
    server: IndexServer,
    honeypots: Vec<Honeypot>,
    hp_attract: Vec<f64>,
    /// The manager's supervision half; its merge half runs beside the
    /// world on [`MergeThread`].
    book: SupervisionBook,
    merge: MergeThread,
    identities: IdentityFactory,
    /// The peer population, struct-of-arrays (see [`crate::peer`]).
    peers: PeerTable,
    /// Reusable scratch for per-round contact orders and wanted-file
    /// snapshots (the hot loop allocates nothing per event).
    scratch_order: Vec<u8>,
    scratch_wanted: Vec<u32>,
    /// The tag list of the last HELLO sent, rewritten in place for the next.
    scratch_hello_tags: Vec<Tag>,
    /// The entries of the last shared-list answer sent, rewritten in place
    /// for the next, and the spare entries of longer answers before it.
    scratch_listing: Vec<PublishedFile>,
    spare_listing: Vec<PublishedFile>,
    /// Community-blacklist exposure per honeypot (detections so far).
    exposure: Vec<u32>,
    /// Per-honeypot sessions that reached part requests / that delivered
    /// any data (drives the source-quality selection bonus).
    hp_request_sessions: Vec<u64>,
    hp_delivered_sessions: Vec<u64>,
    adverts: Adverts,
    rng_arrival: Rng,
    rng_behavior: Rng,
    next_conn: u64,
    /// Per-robot off-period gate (indexed by robot = peer index, robots
    /// are spawned first).
    robot_off_until: Vec<SimTime>,
    pub stats: WorldStats,
}

impl EdonkeyWorld {
    /// Builds the world and seeds the initial events into `engine`.
    pub fn new<Q: PendingQueue<Event>>(
        config: ScenarioConfig,
        engine: &mut Engine<Self, Q>,
    ) -> Self {
        Self::new_with_capture(config, engine, None)
    }

    /// [`Self::new`] with an optional server-side query capture attached.
    /// The capture is pure observation — it draws no randomness and feeds
    /// nothing back into the world, so the honeypot measurement is
    /// bit-identical with or without it (pinned in `tests/capture.rs`).
    pub fn new_with_capture<Q: PendingQueue<Event>>(
        config: ScenarioConfig,
        engine: &mut Engine<Self, Q>,
        capture: Option<ServerCapture>,
    ) -> Self {
        assert!(
            config.honeypots.len() <= MAX_HONEYPOTS,
            "at most {MAX_HONEYPOTS} honeypots supported"
        );
        let mut root = Rng::seed_from(config.seed);
        let mut rng_catalog = root.substream("catalog");
        let catalog = Catalog::generate(&config.catalog, &mut rng_catalog);

        let server_info =
            ServerInfo::new("Big Server One", edonkey_proto::Ipv4::new(195, 200, 1, 1), 4661);
        let mut server = IndexServer::new();
        let ip_hasher = IpHasher::from_seed(root.substream("salt").next_u64());
        if let Some(mut cap) = capture {
            // The capture anonymises with the run's own step-1 salt, so
            // server-side and honeypot-side peer digests coincide.
            cap.set_hasher(ip_hasher.clone());
            server.attach_capture(cap);
        }

        let mut honeypots = Vec::with_capacity(config.honeypots.len());
        let mut hp_attract = Vec::with_capacity(config.honeypots.len());
        let mut specs = Vec::with_capacity(config.honeypots.len());
        for (i, setup) in config.honeypots.iter().enumerate() {
            let id = HoneypotId(i as u32);
            let to_files = |idxs: &[u32]| -> Vec<AdvertisedFile> {
                idxs.iter()
                    .map(|&ci| {
                        let f = catalog.file(ci);
                        AdvertisedFile::new(f.id, f.name.clone(), f.size)
                    })
                    .collect()
            };
            let files = match &setup.fixed_files {
                Some(fixed) => FileStrategy::Fixed(to_files(fixed)),
                None => FileStrategy::Greedy {
                    seeds: to_files(&setup.greedy_seeds),
                    adopt_until: setup.greedy_adopt_until,
                    max_files: setup.greedy_max_files,
                },
            };
            let hp_config = HoneypotConfig {
                id,
                content: setup.content,
                files,
                ask_shared_files: true,
                materialize_content: false,
                port: 4662,
                client_name: format!("client-{i}"),
            };
            honeypots.push(Honeypot::new(
                hp_config,
                server_info.clone(),
                ip_hasher.clone(),
                root.substream_indexed("hp", i as u64),
            ));
            hp_attract.push(setup.attractiveness);
            specs.push(HoneypotSpec { id, content: setup.content, server: server_info.clone() });
        }
        let book = SupervisionBook::new(&specs);
        let merge = MergeThread::spawn(Manager::new(specs));

        let mut world = EdonkeyWorld {
            catalog,
            server,
            honeypots,
            hp_attract,
            book,
            merge,
            identities: IdentityFactory::new(root.substream("identities")),
            peers: PeerTable::new(),
            scratch_order: Vec::new(),
            scratch_wanted: Vec::new(),
            scratch_hello_tags: Vec::new(),
            scratch_listing: Vec::new(),
            spare_listing: Vec::new(),
            exposure: vec![0; config.honeypots.len()],
            hp_request_sessions: vec![0; config.honeypots.len()],
            hp_delivered_sessions: vec![0; config.honeypots.len()],
            adverts: Adverts::default(),
            rng_arrival: root.substream("arrival"),
            rng_behavior: root.substream("behavior"),
            next_conn: 0,
            robot_off_until: Vec::new(),
            stats: WorldStats::default(),
            config,
        };

        world.launch_all(SimTime::ZERO);
        world.spawn_robots();
        world.robot_off_until = vec![SimTime::ZERO; world.peers.len()];
        // Robots run one independent query chain per honeypot, staggered
        // so they do not lock-step.  Each robot also takes two scheduled
        // multi-day off periods (client restarts / maintenance) — the
        // plateaus the paper observes in its top peer's curves.
        for robot in 0..world.peers.len() as u32 {
            for hp in 0..world.honeypots.len() as u8 {
                engine.schedule(
                    SimTime::from_mins(10 + 3 * u64::from(robot) + 7 * u64::from(hp)),
                    Event::RobotStep {
                        peer: robot,
                        hp,
                        phase: RobotPhase::Greet,
                        remaining: 0,
                        conn: 0,
                    },
                );
            }
            let off = world.config.robots.off_duration_ms;
            if off > 0 {
                for (i, start_day_x10) in [70u64, 200].iter().enumerate() {
                    engine.schedule(
                        SimTime::from_hours(
                            (start_day_x10 * 24) / 10 + 13 * u64::from(robot) + i as u64,
                        ),
                        Event::RobotOff { peer: robot, duration_ms: off },
                    );
                }
            }
        }

        // The honeypots need a few minutes of server-side indexing and
        // source propagation before the first genuine peer finds them
        // (the paper waited ten minutes for its first query).
        engine.schedule(SimTime::from_mins(6), Event::ArrivalTick);
        engine.schedule(SimTime::from_millis(world.config.manager_check_ms), Event::ManagerCheck);
        engine.schedule(SimTime::from_millis(world.config.collect_ms), Event::CollectLogs);
        engine.schedule(SimTime::from_millis(world.config.keepalive_ms), Event::Keepalive);
        if world.server.capture_enabled() {
            engine.schedule(SimTime::from_millis(world.status_interval_ms()), Event::StatusSample);
        }
        if let Some(crash) = world.config.crashes {
            for hp in 0..world.honeypots.len() as u8 {
                let delay = exponential(&mut world.rng_behavior, 1.0 / crash.mtbf_ms as f64);
                engine.schedule(SimTime::from_millis(delay as u64), Event::Crash { hp });
            }
        }
        world
    }

    /// Connects (or reconnects) every honeypot needing it, inline: the
    /// latency of login handshakes is irrelevant at measurement scale.
    fn launch_all(&mut self, now: SimTime) {
        for id in self.book.needing_relaunch() {
            self.book.mark_relaunched(id);
            self.launch_one(now, id.0 as usize);
        }
    }

    fn launch_one(&mut self, now: SimTime, idx: usize) {
        let (hp, mut out) = self.honeypot_and_sink(now, idx, None);
        hp.connect(now, &mut out);
        // The server answers the login immediately.
        let addr = PeerAddr::new(Ipv4::new(138, 96, 1, (idx + 1) as u8), 4662);
        let id_change = out.server.login(now, idx as u64, addr, true);
        hp.on_server_message(now, &id_change, &mut out);
    }

    /// Honeypot `idx` and the sink its actions at `now` go to, borrowed side
    /// by side.  `lister` is the peer whose shared list the call delivers,
    /// if any: a honeypot offers a file for the first time only when it
    /// adopts it from such a list, or at launch from its configured files.
    fn honeypot_and_sink(
        &mut self,
        now: SimTime,
        idx: usize,
        lister: Option<u32>,
    ) -> (&mut Honeypot, WorldSink<'_>) {
        let setup = &self.config.honeypots[idx];
        let candidates = match lister {
            Some(peer) => self.peers.shared_files(peer),
            None => setup.fixed_files.as_deref().unwrap_or(&setup.greedy_seeds),
        };
        let out = WorldSink {
            now,
            session: idx as u64,
            server: &mut self.server,
            book: &mut self.book,
            adverts: &mut self.adverts,
            catalog: &self.catalog,
            candidates,
            seen: Replies::default(),
        };
        (&mut self.honeypots[idx], out)
    }

    /// Delivers `msg`, sent by a peer from `src_ip` on connection `conn`, to
    /// honeypot `hp_idx`; returns which replies it drew.
    fn deliver(
        &mut self,
        now: SimTime,
        hp_idx: usize,
        conn: u64,
        src_ip: Ipv4,
        msg: &PeerMessage,
    ) -> Replies {
        let (hp, mut out) = self.honeypot_and_sink(now, hp_idx, None);
        hp.on_peer_message(now, ConnId(conn), src_ip, msg, &mut out);
        out.seen
    }

    /// Delivers peer `peer_idx`'s shared list, answering on connection
    /// `conn`, to honeypot `hp_idx`.  The answer reuses the previous one's
    /// entries, rewritten in place, so it allocates nothing per file.
    fn deliver_listing(&mut self, now: SimTime, hp_idx: usize, conn: u64, peer_idx: u32) {
        let mut files = std::mem::take(&mut self.scratch_listing);
        let list = self.peers.shared_files(peer_idx);
        if files.len() > list.len() {
            self.spare_listing.extend(files.drain(list.len()..));
        }
        while files.len() < list.len() {
            let entry = self
                .spare_listing
                .pop()
                .unwrap_or_else(|| PublishedFile::new(FileId([0; 16]), "", 0));
            files.push(entry);
        }
        for (entry, &ci) in files.iter_mut().zip(list) {
            let f = self.catalog.file(ci);
            entry.set(f.id, &f.name, f.size);
        }
        let src_ip = self.peers.identity(peer_idx).ip;
        let answer = PeerMessage::AskSharedFilesAnswer { files };
        let (hp, mut out) = self.honeypot_and_sink(now, hp_idx, Some(peer_idx));
        hp.on_peer_message(now, ConnId(conn), src_ip, &answer, &mut out);
        if let PeerMessage::AskSharedFilesAnswer { files } = answer {
            self.scratch_listing = files;
        }
    }

    /// Delivers the HELLO `identity` opens connection `conn` with.  Its tag
    /// list is the previous HELLO's, with the name rewritten in place, so a
    /// greeting allocates nothing.
    fn greet(
        &mut self,
        now: SimTime,
        hp_idx: usize,
        conn: u64,
        identity: &PeerIdentity,
    ) -> Replies {
        let mut tags = std::mem::take(&mut self.scratch_hello_tags);
        match tags.as_mut_slice() {
            [Tag { value: TagValue::String(name), .. }, Tag { value: TagValue::U32(version), .. }] =>
            {
                name.clear();
                name.push_str(identity.name());
                *version = identity.version;
            }
            _ => {
                tags = vec![
                    Tag::string(special::NAME, identity.name()),
                    Tag::u32(special::VERSION, identity.version),
                ];
            }
        }
        let hello = PeerMessage::Hello {
            user_id: identity.user_id,
            client_id: identity.client_id,
            port: identity.port,
            tags,
        };
        self.stats.hello_sent += 1;
        let seen = self.deliver(now, hp_idx, conn, identity.ip, &hello);
        if let PeerMessage::Hello { tags, .. } = hello {
            self.scratch_hello_tags = tags;
        }
        seen
    }

    /// The configured STATUS self-snapshot period.
    fn status_interval_ms(&self) -> u64 {
        self.config.server_capture.unwrap_or_default().status_interval_ms.max(1)
    }

    fn spawn_robots(&mut self) {
        if self.adverts.list.is_empty() {
            return;
        }
        // Robots chase the most popular advertised file and sweep every
        // honeypot.
        let target = *self
            .adverts
            .list
            .iter()
            .max_by(|&&a, &&b| {
                self.catalog
                    .file(a)
                    .popularity
                    .partial_cmp(&self.catalog.file(b).popularity)
                    .expect("finite popularity")
            })
            .expect("non-empty");
        let providers: Vec<u8> = (0..self.honeypots.len() as u8).collect();
        for _ in 0..self.config.robots.count {
            let identity = self.identities.create();
            let idx = self.peers.push(NewPeer {
                identity,
                probe_only: false,
                shares_list: false,
                robot: true,
                shared_files: &[],
                wanted: &[target],
                providers: &providers,
                interest_until: SimTime(u64::MAX),
            });
            // Robots are online from t=0 and stay for the whole capture.
            if self.server.capture_enabled() {
                let addr = PeerAddr::new(identity.ip, identity.port);
                self.server.login(
                    SimTime::ZERO,
                    SERVER_PEER_SESSION_BASE + u64::from(idx),
                    addr,
                    identity.client_id.is_high(),
                );
            }
        }
        self.stats.arrivals += self.config.robots.count as u64;
    }

    /// Instantaneous arrival rate (peers per ms) at `now`.
    fn arrival_rate(&mut self, now: SimTime) -> f64 {
        let pop = self.adverts.popularity(&self.catalog);
        let p = &self.config.population;
        let decay = p.daily_decay.powi(now.day_index() as i32);
        let diurnal = p.diurnal.multiplier(now, p.local_offset_hours);
        p.rate_per_popularity * pop * decay * diurnal / MS_PER_DAY as f64
    }

    /// Community-blacklist skip probability for honeypot `hp`:
    /// a saturating function of its accumulated detections.
    fn skip_prob(&self, hp: usize) -> f64 {
        let d = f64::from(self.exposure[hp]);
        let b = self.config.blacklist;
        if b.skip_cap <= 0.0 {
            return 0.0;
        }
        b.skip_cap * d / (d + b.halfway_detections.max(1.0))
    }

    /// Builds a new peer on arrival and appends it to the population,
    /// returning its index; `None` when the peer would never contact a
    /// honeypot (invisible to the measurement).
    fn build_arrival(&mut self, now: SimTime) -> Option<u32> {
        let behavior = self.config.behavior;
        let population = self.config.population;
        // Wanted files: popularity-weighted over the advertised set.
        let n_wanted = 1 + geometric(&mut self.rng_behavior, population.wanted_files_mean - 1.0);
        let mut wanted = Vec::with_capacity(n_wanted as usize);
        for _ in 0..n_wanted {
            let draw = self.rng_behavior.f64();
            if let Some(ci) = self.adverts.sample(&self.catalog, draw) {
                if !wanted.contains(&ci) {
                    wanted.push(ci);
                }
            }
        }
        if wanted.is_empty() {
            return None;
        }
        // Provider candidates: every live provider of any wanted file,
        // minus community-blacklist skips.
        let mut candidates: Vec<u8> = Vec::new();
        for &ci in &wanted {
            let fid = self.catalog.file(ci).id;
            for &session in self.server.provider_sessions(&fid) {
                let hp = session as u8;
                if !candidates.contains(&hp) {
                    candidates.push(hp);
                }
            }
        }
        let skips: Vec<f64> = candidates.iter().map(|&hp| self.skip_prob(hp as usize)).collect();
        let rng = &mut self.rng_behavior;
        let mut i = 0;
        candidates.retain(|_| {
            let keep = !rng.chance(skips[i]);
            i += 1;
            keep
        });
        if candidates.is_empty() {
            self.stats.skipped_invisible += 1;
            return None;
        }
        // Subset selection: all-providers clients vs. small-subset clients,
        // weighted by honeypot attractiveness times the source-quality
        // bonus (delivering sources circulate via peer exchange).
        let providers: Vec<u8> = if self.rng_behavior.chance(behavior.subset_all_prob) {
            candidates
        } else {
            let bonus = self.config.blacklist.source_quality_bonus;
            let weights: Vec<f64> = (0..self.honeypots.len())
                .map(|h| {
                    let ratio = self.hp_delivered_sessions[h] as f64
                        / (self.hp_request_sessions[h] + 1) as f64;
                    self.hp_attract[h] * (1.0 + bonus * ratio)
                })
                .collect();
            let k = (1 + geometric(&mut self.rng_behavior, behavior.subset_mean - 1.0) as usize)
                .min(candidates.len());
            weighted_distinct(&mut self.rng_behavior, &candidates, &weights, k)
        };

        let shares_list = self.rng_behavior.chance(population.share_list_prob);
        // Probe-only clients (PEX crawlers, source checkers) greet sources
        // but never request uploads — a per-client trait, which is why the
        // paper's Fig. 6 (START-UPLOAD peers) tops well below Fig. 5
        // (HELLO peers).
        let probe_only = self.rng_behavior.chance(behavior.hello_only_prob);
        let mut shared_files = Vec::new();
        if shares_list {
            let n = 1 + geometric(&mut self.rng_behavior, population.shared_list_mean - 1.0);
            self.catalog.sample_distinct_by_popularity(
                &mut self.rng_behavior,
                n as usize,
                &mut shared_files,
            );
        }
        let life_ms =
            exponential(&mut self.rng_behavior, 1.0 / behavior.interest_mean_ms as f64) as u64;

        let idx = self.peers.push(NewPeer {
            identity: self.identities.create(),
            probe_only,
            shares_list,
            robot: false,
            shared_files: &shared_files,
            wanted: &wanted,
            providers: &providers,
            interest_until: now.plus_millis(life_ms.max(60_000)),
        });
        if self.server.capture_enabled() {
            self.capture_arrival(now, idx);
        }
        Some(idx)
    }

    /// Server-side view of a peer arrival: before contacting any source, a
    /// real client logs into its index server, searches for what it wants
    /// and asks for sources — exactly the query mix the server-side paper
    /// records.  Pure observation (no randomness, no feedback into the
    /// honeypot path).
    fn capture_arrival(&mut self, now: SimTime, peer_idx: u32) {
        let identity = *self.peers.identity(peer_idx);
        let session = SERVER_PEER_SESSION_BASE + u64::from(peer_idx);
        let addr = PeerAddr::new(identity.ip, identity.port);
        self.server.login(now, session, addr, identity.client_id.is_high());
        // One SEARCH for the primary wanted file (by its first name word),
        // then GET-SOURCES for every wanted file.
        let primary = self.peers.wanted(peer_idx)[0];
        let word = self
            .catalog
            .file(primary)
            .name
            .split(|c: char| !c.is_alphanumeric())
            .find(|w| !w.is_empty())
            .map(str::to_owned);
        if let Some(word) = word {
            let expr = SearchExpr::keyword(&word);
            self.server.search(now, session, &expr, 50);
        }
        for i in 0..self.peers.wanted(peer_idx).len() {
            let ci = self.peers.wanted(peer_idx)[i];
            let fid = self.catalog.file(ci).id;
            self.server.get_sources(now, session, fid);
        }
        // Sharing clients publish their list; the simulation keeps genuine
        // peers out of the provider index (honeypots are the only sources
        // under measurement), so the offer is recorded without indexing.
        if self.peers.shares_list(peer_idx) && !self.peers.shared_files(peer_idx).is_empty() {
            let n = self.peers.shared_files(peer_idx).len() as u32;
            let first = self.catalog.file(self.peers.shared_files(peer_idx)[0]).id;
            self.server.log_offer_only(now, session, addr, n, first);
        }
    }

    /// Server-side view of a retry round: eDonkey clients re-poll their
    /// server for fresh sources before re-contacting providers.
    fn capture_repoll(&mut self, now: SimTime, peer_idx: u32) {
        let session = SERVER_PEER_SESSION_BASE + u64::from(peer_idx);
        for i in 0..self.peers.wanted(peer_idx).len() {
            let ci = self.peers.wanted(peer_idx)[i];
            let fid = self.catalog.file(ci).id;
            self.server.get_sources(now, session, fid);
        }
    }

    /// Server-side view of a peer leaving the network for good (interest
    /// expired or file abandoned).  Idempotent: the server only records a
    /// DISCONNECT while the session is still registered.
    fn capture_peer_done(&mut self, now: SimTime, peer_idx: u32) {
        if self.server.capture_enabled() {
            self.server.disconnect(now, SERVER_PEER_SESSION_BASE + u64::from(peer_idx));
        }
    }

    /// Starts a retry round: ordered contact list over non-blacklisted
    /// providers.
    fn start_round(&mut self, now: SimTime, peer_idx: u32, sched: &mut Scheduler<'_, Event>) {
        let mut order = std::mem::take(&mut self.scratch_order);
        order.clear();
        let mask_filter = |&hp: &u8| !self.peers.is_blacklisted(peer_idx, hp);
        order.extend(self.peers.providers(peer_idx).iter().copied().filter(mask_filter));
        self.rng_behavior.shuffle(&mut order);
        self.peers.set_order(peer_idx, &order);
        let empty = order.is_empty();
        self.scratch_order = order;
        if empty {
            return;
        }
        if self.peers.rounds(peer_idx) > 0 && self.server.capture_enabled() {
            self.capture_repoll(now, peer_idx);
        }
        self.session_step(peer_idx, sched);
    }

    /// Ends the current session with `outcome` and advances to the next
    /// provider or the next round.
    fn finish_session(
        &mut self,
        now: SimTime,
        peer_idx: u32,
        outcome: SessionOutcome,
        sched: &mut Scheduler<'_, Event>,
    ) {
        let behavior = self.config.behavior;
        let Some(session) = self.peers.take_session(peer_idx) else { return };
        self.honeypots[session.hp as usize].on_peer_disconnected(ConnId(session.conn));
        match outcome {
            SessionOutcome::Detected => {
                if !self.peers.robot(peer_idx) {
                    self.peers.blacklist_hp(peer_idx, session.hp);
                    self.peers.bump_failures(peer_idx);
                }
                let strategy = self.honeypots[session.hp as usize].content_strategy();
                self.exposure[session.hp as usize] += 1;
                match strategy {
                    ContentStrategy::NoContent => self.stats.detections_nc += 1,
                    ContentStrategy::RandomContent => self.stats.detections_rc += 1,
                }
            }
            SessionOutcome::NoAnswer => {
                self.stats.dead_contacts += 1;
            }
            SessionOutcome::HelloOnly | SessionOutcome::Inconclusive => {}
        }

        self.peers.bump_pos(peer_idx);
        if (self.peers.pos(peer_idx) as usize) < self.peers.order(peer_idx).len()
            && !self.peers.done(peer_idx, now, behavior.abandon_failures)
        {
            sched.in_ms(behavior.contact_gap_ms, Event::SessionStep { peer: peer_idx });
            return;
        }
        // Round over.
        self.peers.bump_rounds(peer_idx);
        if !self.peers.done(peer_idx, now, behavior.abandon_failures) {
            let delay =
                exponential(&mut self.rng_behavior, 1.0 / behavior.retry_interval_ms as f64) as u64;
            sched.in_ms(delay.max(60_000), Event::RoundStart { peer: peer_idx });
        } else {
            self.capture_peer_done(now, peer_idx);
        }
    }

    /// Advances one peer's session machine by one message exchange.
    fn session_step(&mut self, peer_idx: u32, sched: &mut Scheduler<'_, Event>) {
        let now = sched.now();
        let behavior = self.config.behavior;

        // Open a session with the provider at `pos` if none is in flight.
        if self.peers.session(peer_idx).is_none() {
            if (self.peers.pos(peer_idx) as usize) >= self.peers.order(peer_idx).len() {
                return;
            }
            let hp = self.peers.order(peer_idx)[self.peers.pos(peer_idx) as usize];
            let file = {
                // Sessions ask for one wanted file; robots always use their
                // single target.
                let wanted = self.peers.wanted(peer_idx);
                let i = self.rng_behavior.below(wanted.len() as u64) as usize;
                wanted[i]
            };
            debug_assert!(!self.peers.robot(peer_idx), "robots use their own chain events");
            let hello_only = self.peers.probe_only(peer_idx);
            // First-round sessions always attempt the download (the peer
            // genuinely wants the file); later rounds are mostly re-polls.
            let do_request = self.peers.rounds(peer_idx) == 0
                || self.rng_behavior.chance(behavior.retry_request_prob);
            let budget = (1 + geometric(&mut self.rng_behavior, behavior.rc_budget_mean - 1.0))
                .min(60) as u8;
            let conn = self.next_conn;
            self.next_conn += 1;
            *self.peers.session_mut(peer_idx) = Some(Session {
                hp,
                file,
                state: SessionState::Greet,
                budget,
                timeouts: 0,
                hello_only,
                do_request,
                conn,
                block_cursor: 0,
                delivered: false,
            });
            self.stats.sessions += 1;
        }

        let identity = *self.peers.identity(peer_idx);
        let session = self.peers.session(peer_idx).expect("session just ensured");
        let hp_idx = session.hp as usize;

        match session.state {
            SessionState::Greet => {
                let seen = self.greet(now, hp_idx, session.conn, &identity);
                if !seen.hello_answer {
                    self.finish_session(now, peer_idx, SessionOutcome::NoAnswer, sched);
                    return;
                }
                // Answer the shared-files request once per honeypot.
                if seen.ask_shared
                    && self.peers.shares_list(peer_idx)
                    && !self.peers.shared_sent_to(peer_idx, session.hp)
                {
                    self.peers.mark_shared_sent(peer_idx, session.hp);
                    self.deliver_listing(now, hp_idx, session.conn, peer_idx);
                }
                if session.hello_only {
                    self.finish_session(now, peer_idx, SessionOutcome::HelloOnly, sched);
                    return;
                }
                if let Some(s) = self.peers.session_mut(peer_idx) {
                    s.state = SessionState::Upload;
                }
                sched.in_ms(400, Event::SessionStep { peer: peer_idx });
            }
            SessionState::Upload => {
                // The client declares interest in *every* wanted file this
                // source advertises (real clients ask a multi-file source
                // about each download in progress); the part-request loop
                // then proceeds on the session's primary file.  This is
                // what populates the per-file peer sets of Figs. 11-12.
                let src_ip = identity.ip;
                let mut wanted = std::mem::take(&mut self.scratch_wanted);
                wanted.clear();
                wanted.extend_from_slice(self.peers.wanted(peer_idx));
                let primary = session.file;
                let mut accepted = false;
                for ci in wanted.iter().copied().filter(|&ci| ci != primary).chain([primary]) {
                    if !self.honeypots[hp_idx].advertises(&self.catalog.file(ci).id) {
                        continue;
                    }
                    let msg = PeerMessage::StartUpload { file_id: self.catalog.file(ci).id };
                    self.stats.start_upload_sent += 1;
                    accepted = self.deliver(now, hp_idx, session.conn, src_ip, &msg).accept_upload;
                }
                self.scratch_wanted = wanted;
                if !accepted {
                    self.finish_session(now, peer_idx, SessionOutcome::NoAnswer, sched);
                    return;
                }
                if !session.do_request {
                    self.finish_session(now, peer_idx, SessionOutcome::Inconclusive, sched);
                    return;
                }
                if let Some(s) = self.peers.session_mut(peer_idx) {
                    s.state = SessionState::Request;
                }
                sched.in_ms(400, Event::SessionStep { peer: peer_idx });
            }
            SessionState::Request => {
                let file = self.catalog.file(session.file);
                let size = file.size.min(u64::from(u32::MAX - 1));
                let msg = PeerMessage::RequestParts {
                    file_id: file.id,
                    ranges: block_triple(size, session.block_cursor),
                };
                self.stats.request_parts_sent += 1;
                let got_data =
                    self.deliver(now, hp_idx, session.conn, identity.ip, &msg).sending_part;
                if session.block_cursor == 0 {
                    // First part request of this session.
                    self.hp_request_sessions[hp_idx] += 1;
                }
                if got_data && !session.delivered {
                    self.hp_delivered_sessions[hp_idx] += 1;
                }
                let Some(s) = self.peers.session_mut(peer_idx).as_mut() else { return };
                if got_data {
                    s.delivered = true;
                    s.timeouts = 0;
                    s.block_cursor += 3;
                    s.budget = s.budget.saturating_sub(1);
                    if s.budget == 0 {
                        let detected = self.rng_behavior.chance(behavior.rc_detect_prob);
                        let outcome = if detected {
                            SessionOutcome::Detected
                        } else {
                            SessionOutcome::Inconclusive
                        };
                        self.finish_session(now, peer_idx, outcome, sched);
                        return;
                    }
                    let delay =
                        exponential(&mut self.rng_behavior, 1.0 / behavior.rc_transfer_ms as f64)
                            as u64;
                    sched.in_ms(delay.max(500), Event::SessionStep { peer: peer_idx });
                } else {
                    s.timeouts += 1;
                    if u32::from(s.timeouts) >= behavior.nc_timeouts_to_fail {
                        let detected = self.rng_behavior.chance(behavior.nc_detect_prob);
                        let outcome = if detected {
                            SessionOutcome::Detected
                        } else {
                            SessionOutcome::Inconclusive
                        };
                        self.finish_session(now, peer_idx, outcome, sched);
                        return;
                    }
                    // Silence paces at the timeout, near-constant (Fig. 9's
                    // smooth no-content curve).
                    let jitter = self.rng_behavior.below(2_000);
                    sched.in_ms(
                        behavior.nc_timeout_ms + jitter,
                        Event::SessionStep { peer: peer_idx },
                    );
                }
            }
        }
    }

    /// One step of a robot's independent query chain against honeypot
    /// `hp`: the automated client re-runs HELLO → START-UPLOAD →
    /// REQUEST-PARTS sessions back-to-back (modulo a lockout), paced by
    /// the source's answer behaviour — silence holds it for the robot's
    /// generous timeout, data only for the transfer (Figs. 8–9).
    #[allow(clippy::too_many_arguments)]
    fn robot_step(
        &mut self,
        peer_idx: u32,
        hp: u8,
        phase: RobotPhase,
        remaining: u8,
        conn: u64,
        sched: &mut Scheduler<'_, Event>,
    ) {
        let now = sched.now();
        let robots = self.config.robots;
        let hp_idx = hp as usize;
        // Off periods gate new sessions only; an in-flight session runs out.
        if phase == RobotPhase::Greet {
            let off_until = self.robot_off_until[peer_idx as usize];
            if now < off_until {
                sched.at(
                    off_until.plus_millis(u64::from(hp) * 30_000),
                    Event::RobotStep { peer: peer_idx, hp, phase, remaining, conn },
                );
                return;
            }
        }
        let next = |phase: RobotPhase, remaining: u8, conn: u64| Event::RobotStep {
            peer: peer_idx,
            hp,
            phase,
            remaining,
            conn,
        };
        match phase {
            RobotPhase::Greet => {
                // Automated clients re-poll their server before every
                // session — the server-side measurement's heavy-tail "top
                // peers" come from exactly this back-to-back query chain.
                if self.server.capture_enabled() {
                    let fid = self.catalog.file(self.peers.wanted(peer_idx)[0]).id;
                    let session = SERVER_PEER_SESSION_BASE + u64::from(peer_idx);
                    self.server.get_sources(now, session, fid);
                }
                let conn = self.next_conn;
                self.next_conn += 1;
                let identity = *self.peers.identity(peer_idx);
                if self.greet(now, hp_idx, conn, &identity).hello_answer {
                    sched.in_ms(400, next(RobotPhase::Upload, 0, conn));
                } else {
                    // Dead source: try again after the lockout.
                    sched.in_ms(robots.lockout_ms, next(RobotPhase::Greet, 0, 0));
                }
            }
            RobotPhase::Upload => {
                let file = self.peers.wanted(peer_idx)[0];
                let src_ip = self.peers.identity(peer_idx).ip;
                let msg = PeerMessage::StartUpload { file_id: self.catalog.file(file).id };
                self.stats.start_upload_sent += 1;
                if self.deliver(now, hp_idx, conn, src_ip, &msg).accept_upload {
                    let budget = robots.budget.clamp(1, 250) as u8;
                    sched.in_ms(400, next(RobotPhase::Request, budget, conn));
                } else {
                    self.honeypots[hp_idx].on_peer_disconnected(ConnId(conn));
                    sched.in_ms(robots.lockout_ms, next(RobotPhase::Greet, 0, 0));
                }
            }
            RobotPhase::Request => {
                let file = self.catalog.file(self.peers.wanted(peer_idx)[0]);
                let size = file.size.min(u64::from(u32::MAX - 1));
                let msg = PeerMessage::RequestParts {
                    file_id: file.id,
                    ranges: block_triple(size, u32::from(remaining) * 3),
                };
                self.stats.request_parts_sent += 1;
                let src_ip = self.peers.identity(peer_idx).ip;
                let got_data = self.deliver(now, hp_idx, conn, src_ip, &msg).sending_part;
                let remaining = remaining.saturating_sub(1);
                let pace = if got_data {
                    (exponential(
                        &mut self.rng_behavior,
                        1.0 / self.config.behavior.rc_transfer_ms as f64,
                    ) as u64)
                        .max(500)
                } else {
                    // Near-constant timeout pacing: the smooth no-content
                    // curve of Fig. 9.
                    robots.nc_timeout_ms + self.rng_behavior.below(2_000)
                };
                if remaining == 0 {
                    // Session over; occasionally the whole robot goes dark
                    // (the plateaus of Figs. 8-9).
                    self.honeypots[hp_idx].on_peer_disconnected(ConnId(conn));
                    if self.rng_behavior.chance(robots.off_prob) {
                        self.robot_off_until[peer_idx as usize] =
                            now.plus_millis(robots.off_duration_ms);
                    }
                    sched.in_ms(pace + robots.lockout_ms, next(RobotPhase::Greet, 0, 0));
                } else {
                    sched.in_ms(pace, next(RobotPhase::Request, remaining, conn));
                }
            }
        }
    }

    /// Finishes the measurement: collects outstanding logs and produces the
    /// merged anonymised dataset plus final statistics.
    pub fn finish(mut self, duration: SimTime) -> SimOutput {
        for hp in &mut self.honeypots {
            self.merge.send(hp.collect_log());
        }
        let shared_final = self.honeypots.iter().map(|h| h.shared_files().len()).max().unwrap_or(0);
        let relaunches = self.book.relaunch_count();
        let manager = self.merge.join();
        let log = manager.finalize(duration, shared_final as u32, self.config.name_threshold);
        SimOutput { log, stats: self.stats, relaunches, events_handled: 0 }
    }

    /// The honeypots (tests & diagnostics).
    pub fn honeypots(&self) -> &[Honeypot] {
        &self.honeypots
    }

    /// Detaches the server capture (to finish it after the run).
    pub fn take_capture(&mut self) -> Option<ServerCapture> {
        self.server.take_capture()
    }
}

/// The manager's merge on a thread of its own.  The world cuts each
/// honeypot's chunk itself (`take_chunk` is the snapshot) and sends it
/// here; one consumer reading a FIFO channel merges the chunks in exactly
/// the order they were sent, so the log is the one an inline merge would
/// build.  The world never reads merge state before [`Self::join`].
/// Dropping the handle without joining ends the thread too.
struct MergeThread {
    tx: Option<Sender<LogChunk>>,
    handle: Option<JoinHandle<Manager>>,
}

impl MergeThread {
    fn spawn(mut manager: Manager) -> Self {
        let (tx, rx) = channel::<LogChunk>();
        let handle = std::thread::Builder::new()
            .name("log-merge".into())
            .spawn(move || {
                for chunk in rx {
                    manager.collect(chunk);
                }
                manager
            })
            .expect("spawn the log-merge thread");
        MergeThread { tx: Some(tx), handle: Some(handle) }
    }

    fn send(&mut self, chunk: LogChunk) {
        if self.tx.as_ref().expect("merge running").send(chunk).is_err() {
            // The merge panicked: surface its panic here.
            self.join();
        }
    }

    /// Closes the channel, waits for the merge to drain it and returns the
    /// manager, re-raising a panic of the merge thread.
    fn join(&mut self) -> Manager {
        self.tx = None;
        let handle = self.handle.take().expect("joined once");
        handle.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    }
}

impl Drop for MergeThread {
    fn drop(&mut self) {
        self.tx = None;
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// Result of a completed scenario run.
pub struct SimOutput {
    pub log: MeasurementLog,
    pub stats: WorldStats,
    pub relaunches: u64,
    /// Discrete events the engine dispatched — the numerator of
    /// events-per-second throughput.
    pub events_handled: u64,
}

impl World for EdonkeyWorld {
    type Event = Event;

    fn handle(&mut self, now: SimTime, event: Event, sched: &mut Scheduler<'_, Event>) {
        match event {
            Event::ArrivalTick => {
                let tick = self.config.population.arrival_tick_ms;
                let rate = self.arrival_rate(now);
                let n = poisson(&mut self.rng_arrival, rate * tick as f64);
                for _ in 0..n {
                    let offset = self.rng_arrival.below(tick);
                    if let Some(idx) = self.build_arrival(now) {
                        self.stats.arrivals += 1;
                        sched.in_ms(offset, Event::RoundStart { peer: idx });
                    }
                }
                sched.in_ms(tick, Event::ArrivalTick);
            }
            Event::RoundStart { peer } => {
                if self.peers.done(peer, now, self.config.behavior.abandon_failures) {
                    self.capture_peer_done(now, peer);
                    return;
                }
                // Users follow the daily rhythm in their retries too (the
                // client is off at night): defer rounds falling into
                // low-activity hours — this, not just arrivals, carries the
                // day/night oscillation of Fig. 4 into the query volume.
                let p = &self.config.population;
                let gate =
                    p.diurnal.multiplier(now, p.local_offset_hours) / (1.0 + p.diurnal.amplitude);
                if !self.rng_behavior.chance(gate) {
                    let delay = 45 * 60_000 + self.rng_behavior.below(45 * 60_000);
                    sched.in_ms(delay, Event::RoundStart { peer });
                    return;
                }
                self.start_round(now, peer, sched);
            }
            Event::SessionStep { peer } => self.session_step(peer, sched),
            Event::ManagerCheck => {
                self.launch_all(now);
                sched.in_ms(self.config.manager_check_ms, Event::ManagerCheck);
            }
            Event::CollectLogs => {
                for hp in &mut self.honeypots {
                    self.merge.send(hp.collect_log());
                }
                sched.in_ms(self.config.collect_ms, Event::CollectLogs);
            }
            Event::Keepalive => {
                for i in 0..self.honeypots.len() {
                    let (hp, mut out) = self.honeypot_and_sink(now, i, None);
                    hp.keepalive(now, &mut out);
                }
                sched.in_ms(self.config.keepalive_ms, Event::Keepalive);
            }
            Event::RobotStep { peer, hp, phase, remaining, conn } => {
                self.robot_step(peer, hp, phase, remaining, conn, sched);
            }
            Event::RobotOff { peer, duration_ms } => {
                let until = now.plus_millis(duration_ms);
                let slot = &mut self.robot_off_until[peer as usize];
                *slot = (*slot).max(until);
            }
            Event::StatusSample => {
                let _ = self.server.status(now);
                sched.in_ms(self.status_interval_ms(), Event::StatusSample);
            }
            Event::Crash { hp } => {
                let idx = hp as usize;
                let (honeypot, mut out) = self.honeypot_and_sink(now, idx, None);
                honeypot.kill(now, &mut out);
                out.server.disconnect(now, idx as u64);
                self.stats.crashes += 1;
                if let Some(crash) = self.config.crashes {
                    let delay =
                        exponential(&mut self.rng_behavior, 1.0 / crash.mtbf_ms as f64) as u64;
                    sched.in_ms(delay.max(60_000), Event::Crash { hp });
                }
            }
        }
    }
}

/// The files the honeypots have advertised, as catalog indices, and the
/// popularity-weighted draw arrivals make over them.
#[derive(Default)]
struct Adverts {
    /// FileId → catalog index of every advertised file.
    index: HashMap<FileId, u32>,
    /// Advertised catalog indices (deduplicated, in first-offer order).
    list: Vec<u32>,
    /// Cumulative popularity over `list` (rebuilt when dirty).
    cum: Vec<f64>,
    dirty: bool,
}

impl Adverts {
    /// Records offered files.  A file not advertised before takes its
    /// catalog index from `candidates`, the catalog files of the delivery
    /// that made the honeypot offer it, in whose order the honeypot lists
    /// new files; files outside the catalog are not drawn.
    fn add(&mut self, files: &[AdvertisedFile], candidates: &[u32], catalog: &Catalog) {
        let mut rest = candidates;
        for f in files {
            let Entry::Vacant(e) = self.index.entry(f.id) else { continue };
            let found = rest.iter().position(|&ci| catalog.file(ci).id == f.id);
            debug_assert!(found.is_some(), "a newly offered file is one its delivery listed");
            if let Some(at) = found {
                let ci = rest[at];
                rest = &rest[at + 1..];
                e.insert(ci);
                self.list.push(ci);
                self.dirty = true;
            }
        }
    }

    fn refresh(&mut self, catalog: &Catalog) {
        if !self.dirty {
            return;
        }
        self.cum.clear();
        let mut acc = 0.0;
        for &ci in &self.list {
            acc += catalog.file(ci).popularity;
            self.cum.push(acc);
        }
        self.dirty = false;
    }

    /// Total popularity of the advertised files.
    fn popularity(&mut self, catalog: &Catalog) -> f64 {
        self.refresh(catalog);
        self.cum.last().copied().unwrap_or(0.0)
    }

    /// Popularity-weighted draw over the advertised files.
    fn sample(&mut self, catalog: &Catalog, rng_draw: f64) -> Option<u32> {
        self.refresh(catalog);
        let total = *self.cum.last()?;
        let x = rng_draw * total;
        let idx = self.cum.partition_point(|&c| c <= x).min(self.list.len() - 1);
        Some(self.list[idx])
    }
}

/// Which replies one honeypot call drew.
#[derive(Clone, Copy, Default)]
struct Replies {
    hello_answer: bool,
    ask_shared: bool,
    accept_upload: bool,
    sending_part: bool,
}

/// The world's [`ActionSink`] for one honeypot call.  Offers go straight to
/// the index server and the advertised set, reports to the manager's book.  The
/// peers replies would answer are modelled rather than spoken to, so a
/// reply is only noted by kind.
struct WorldSink<'a> {
    now: SimTime,
    /// The honeypot's server session (its index).
    session: u64,
    server: &'a mut IndexServer,
    book: &'a mut SupervisionBook,
    adverts: &'a mut Adverts,
    catalog: &'a Catalog,
    /// The catalog files the delivery can make the honeypot offer for the
    /// first time (see [`EdonkeyWorld::honeypot_and_sink`]).
    candidates: &'a [u32],
    seen: Replies,
}

impl ActionSink for WorldSink<'_> {
    fn reply(&mut self, msg: &PeerMessage) {
        match msg {
            PeerMessage::HelloAnswer { .. } => self.seen.hello_answer = true,
            PeerMessage::AskSharedFiles => self.seen.ask_shared = true,
            PeerMessage::AcceptUpload => self.seen.accept_upload = true,
            PeerMessage::SendingPart { .. } => self.seen.sending_part = true,
            _ => {}
        }
    }

    fn send_server(&mut self, _msg: ClientServerMessage) {
        // The LOGIN-REQUEST, the only message sent this way: `launch_one`
        // logs the honeypot in itself.
    }

    fn offer(&mut self, files: &[AdvertisedFile]) {
        // Files the server skips as already offered by this session went
        // through here when they were first offered.
        let skipped = self.server.offer_files(self.now, self.session, files);
        self.adverts.add(&files[skipped..], self.candidates, self.catalog);
    }

    fn report(&mut self, report: StatusReport) {
        self.book.on_status(report);
    }
}

/// Geometric sample with the given mean (number of successes before
/// failure); mean 0 yields constant 0.
fn geometric(rng: &mut Rng, mean: f64) -> u32 {
    if mean <= 0.0 {
        return 0;
    }
    let p = 1.0 / (1.0 + mean);
    let u = rng.f64_open();
    (u.ln() / (1.0 - p).ln()).floor() as u32
}

/// Samples `k` distinct items from `candidates`, weighted by
/// `weights[item]` (weights indexed by honeypot id).
fn weighted_distinct(rng: &mut Rng, candidates: &[u8], weights: &[f64], k: usize) -> Vec<u8> {
    let k = k.min(candidates.len());
    let mut pool: Vec<u8> = candidates.to_vec();
    let mut out = Vec::with_capacity(k);
    for _ in 0..k {
        let total: f64 = pool.iter().map(|&c| weights[c as usize]).sum();
        let mut x = rng.f64() * total;
        let mut chosen = pool.len() - 1;
        for (i, &c) in pool.iter().enumerate() {
            x -= weights[c as usize];
            if x <= 0.0 {
                chosen = i;
                break;
            }
        }
        out.push(pool.swap_remove(chosen));
    }
    out
}

/// The three consecutive block ranges starting at block index `cursor`,
/// wrapped within the first part of a file of `size` bytes (u32 offsets per
/// the classic protocol).
fn block_triple(size: u64, cursor: u32) -> [PartRange; 3] {
    let size32 = size.min(u64::from(u32::MAX - 1)) as u32;
    let blocks_total = (u64::from(size32).div_ceil(BLOCK_SIZE)).max(1) as u32;
    let mut ranges = [PartRange::new(0, 0); 3];
    for (i, r) in ranges.iter_mut().enumerate() {
        let b = (cursor + i as u32) % blocks_total;
        let start = (u64::from(b) * BLOCK_SIZE) as u32;
        let end = ((u64::from(b) + 1) * BLOCK_SIZE).min(u64::from(size32)) as u32;
        *r = PartRange::new(start, end);
    }
    ranges
}

/// Runs a scenario end-to-end and returns its output.
///
/// Dispatches on [`crate::config::QueueKind`] once, up front; all three
/// queues produce byte-identical output (see `tests/determinism.rs`), so
/// the queue choice only affects wall-clock time.
pub fn run_scenario(config: ScenarioConfig) -> SimOutput {
    match config.queue {
        QueueKind::Heap => run_scenario_on(config, EventQueue::new()),
        QueueKind::Calendar => run_scenario_on(config, CalendarQueue::for_simulation()),
        QueueKind::Wheel => run_scenario_on(config, TimingWheel::for_simulation()),
    }
}

/// [`run_scenario`] on a concrete queue.
fn run_scenario_on<Q: PendingQueue<Event>>(config: ScenarioConfig, queue: Q) -> SimOutput {
    let duration = config.duration;
    // Phase spans keyed on deterministic sim quantities only (duration,
    // seed, event counts) — the trace is as reproducible as the run, and
    // recording it cannot change the measurement (tests/obs_purity.rs in
    // the sim crate pins this).
    netsim::obs_event!(
        netsim::obs::Level::Trace,
        "sim",
        "scenario_setup",
        seed = config.seed,
        duration_ms = duration.as_millis()
    );
    let mut engine = Engine::with_queue(queue);
    let mut world = EdonkeyWorld::new(config, &mut engine);
    netsim::obs_event!(
        netsim::obs::Level::Trace,
        "sim",
        "scenario_run",
        duration_ms = duration.as_millis()
    );
    engine.run_until(&mut world, duration);
    netsim::obs_event!(
        netsim::obs::Level::Trace,
        "sim",
        "scenario_finalize",
        events_handled = engine.events_handled()
    );
    let mut out = world.finish(duration);
    out.events_handled = engine.events_handled();
    netsim::obs_event!(
        netsim::obs::Level::Trace,
        "sim",
        "scenario_done",
        events_handled = out.events_handled,
        records = out.log.records.len()
    );
    out
}

/// Result of a capture-enabled run: the usual honeypot measurement plus
/// the statistics of the server-side log streamed to disk.
pub struct CaptureRunOutput {
    pub output: SimOutput,
    pub capture: ServerLogStats,
    /// A write error disabled the capture mid-run; `capture` covers only
    /// the flushed prefix and `capture_dropped` counts the rest.
    pub capture_degraded: bool,
    pub capture_dropped: u64,
}

/// Runs a scenario with the server-side query capture streaming into
/// `dir` (see `honeypot::serverlog` for the on-disk format).  The capture
/// knobs come from `config.server_capture` (defaults when `None`).
pub fn run_scenario_with_capture(
    config: ScenarioConfig,
    dir: &std::path::Path,
) -> std::io::Result<CaptureRunOutput> {
    fn on<Q: PendingQueue<Event>>(
        config: ScenarioConfig,
        queue: Q,
        capture: ServerCapture,
    ) -> std::io::Result<CaptureRunOutput> {
        let duration = config.duration;
        let mut engine = Engine::with_queue(queue);
        let mut world = EdonkeyWorld::new_with_capture(config, &mut engine, Some(capture));
        engine.run_until(&mut world, duration);
        let capture = world.take_capture().expect("capture attached");
        let capture_degraded = capture.degraded();
        let capture_dropped = capture.dropped();
        let capture = capture.finish()?;
        let mut output = world.finish(duration);
        output.events_handled = engine.events_handled();
        Ok(CaptureRunOutput { output, capture, capture_degraded, capture_dropped })
    }
    let cap_cfg = config.server_capture.unwrap_or_default();
    let capture = ServerCapture::create(dir, cap_cfg.frame_records, cap_cfg.segment_bytes)?;
    match config.queue {
        QueueKind::Heap => on(config, EventQueue::new(), capture),
        QueueKind::Calendar => on(config, CalendarQueue::for_simulation(), capture),
        QueueKind::Wheel => on(config, TimingWheel::for_simulation(), capture),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use honeypot::QueryKind;
    use std::collections::HashSet;

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
        let candidates = [0u8, 1, 2, 3];
        let weights = [10.0, 1.0, 1.0, 1.0];
        let mut count0 = 0;
        for _ in 0..2_000 {
            let s = weighted_distinct(&mut rng, &candidates, &weights, 2);
            assert_eq!(s.len(), 2);
            assert_ne!(s[0], s[1]);
            if s.contains(&0) {
                count0 += 1;
            }
        }
        assert!(count0 > 1_500, "heavy item picked in {count0}/2000 pairs");
    }

    #[test]
    fn block_triple_within_bounds() {
        let size = 1_000_000u64;
        for cursor in [0u32, 1, 5, 100] {
            for r in block_triple(size, cursor) {
                assert!(u64::from(r.end) <= size);
                assert!(r.start < r.end);
                assert!(u64::from(r.len()) <= BLOCK_SIZE);
            }
        }
    }

    #[test]
    fn block_triple_tiny_file() {
        let ranges = block_triple(1_000, 0);
        for r in ranges {
            assert_eq!((r.start, r.end), (0, 1_000), "single-block file wraps onto itself");
        }
    }

    #[test]
    fn tiny_scenario_produces_coherent_log() {
        let out = run_scenario(ScenarioConfig::tiny(42));
        assert!(out.log.distinct_peers > 0, "some peers must be observed");
        assert!(out.log.records_of(QueryKind::Hello).count() > 0);
        assert!(out.log.validate().is_empty(), "{:?}", out.log.validate());
        assert!(out.stats.hello_sent >= out.log.records_of(QueryKind::Hello).count() as u64);
    }

    #[test]
    fn determinism_same_seed_same_log() {
        let a = run_scenario(ScenarioConfig::tiny(7));
        let b = run_scenario(ScenarioConfig::tiny(7));
        assert_eq!(a.log.records.len(), b.log.records.len());
        assert_eq!(a.log.distinct_peers, b.log.distinct_peers);
        assert_eq!(a.stats.request_parts_sent, b.stats.request_parts_sent);
        // Spot-check full record equality on a sample.
        for i in (0..a.log.records.len()).step_by(97) {
            assert_eq!(a.log.records[i], b.log.records[i]);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = run_scenario(ScenarioConfig::tiny(1));
        let b = run_scenario(ScenarioConfig::tiny(2));
        assert_ne!(
            (a.log.records.len(), a.log.distinct_peers),
            (b.log.records.len(), b.log.distinct_peers)
        );
    }

    #[test]
    fn scaling_shrinks_population() {
        let full = run_scenario(ScenarioConfig::tiny(5));
        let small = run_scenario(ScenarioConfig::tiny(5).scaled(0.25));
        assert!(
            (small.log.distinct_peers as f64) < 0.6 * full.log.distinct_peers as f64,
            "scaled run {} vs full {}",
            small.log.distinct_peers,
            full.log.distinct_peers
        );
    }

    #[test]
    fn honeypots_keep_only_the_sessions_in_flight() {
        let config = ScenarioConfig::tiny(42).scaled(10.0);
        let (duration, robots) = (config.duration, config.robots.count);
        let mut engine = Engine::with_queue(CalendarQueue::for_simulation());
        let mut world = EdonkeyWorld::new(config, &mut engine);
        engine.run_until(&mut world, duration);
        assert!(world.stats.sessions > 200, "{} sessions", world.stats.sessions);
        for (h, hp) in world.honeypots().iter().enumerate() {
            let peer_sessions = (0..world.peers.len() as u32)
                .filter(|&p| world.peers.session(p).is_some_and(|s| usize::from(s.hp) == h))
                .count();
            // A robot runs at most one query chain per honeypot.
            let in_flight = peer_sessions + robots;
            assert!(
                hp.live_sessions() <= in_flight,
                "honeypot {h} keeps {} sessions with {in_flight} in flight",
                hp.live_sessions()
            );
        }
    }

    /// A greedy honeypot adopts files, dies, relaunches and keeps alive:
    /// the advertised set holds each file it ever offered once, in
    /// first-offer order, and adoption goes on after the relaunch.
    #[test]
    fn advertised_set_survives_a_relaunch() {
        let mut config = ScenarioConfig::tiny(3).scaled(0.3);
        config.honeypots =
            vec![crate::config::HoneypotSetup::greedy(vec![0, 1, 2], SimTime::from_days(1), 150)];
        let mut engine = Engine::with_queue(CalendarQueue::for_simulation());
        let mut world = EdonkeyWorld::new(config, &mut engine);
        let advertised = |world: &EdonkeyWorld| -> Vec<FileId> {
            world.adverts.list.iter().map(|&ci| world.catalog.file(ci).id).collect()
        };
        let listed = |world: &EdonkeyWorld| -> Vec<FileId> {
            world.honeypots[0].shared_files().iter().map(|f| f.id).collect()
        };
        let now = SimTime::from_hours(8);
        engine.run_until(&mut world, now);
        let before = advertised(&world);
        assert!(before.len() > 3, "the honeypot must adopt files");
        assert_eq!(before, listed(&world));

        let (hp, mut out) = world.honeypot_and_sink(now, 0, None);
        hp.kill(now, &mut out);
        out.server.disconnect(now, 0);
        world.launch_all(now);
        assert!(matches!(world.honeypots[0].status(), honeypot::HoneypotStatus::Connected { .. }));
        let (hp, mut out) = world.honeypot_and_sink(now, 0, None);
        hp.keepalive(now, &mut out);
        assert_eq!(advertised(&world), before, "re-offering the list adds nothing");

        engine.run_until(&mut world, SimTime::from_hours(20));
        let after = advertised(&world);
        assert!(after.len() > before.len(), "adoption goes on after the relaunch");
        assert_eq!(after, listed(&world));
        let distinct: HashSet<&FileId> = after.iter().collect();
        assert_eq!(distinct.len(), after.len(), "each file once");
    }

    #[test]
    fn crashes_trigger_relaunches() {
        let mut config = ScenarioConfig::tiny(11);
        config.crashes =
            Some(crate::config::CrashConfig { mtbf_ms: 6 * netsim::time::MS_PER_HOUR });
        let out = run_scenario(config);
        assert!(out.stats.crashes > 0, "failure injection must fire");
        assert!(out.relaunches > 0, "manager must relaunch dead honeypots");
        assert!(out.log.distinct_peers > 0, "measurement survives crashes");
    }
}
