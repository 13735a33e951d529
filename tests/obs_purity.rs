//! Purity pin for the observability layer (PR 10): turning tracing,
//! histograms, and the live scrape endpoint on — at any verbosity —
//! must not perturb a single byte of measurement output or control
//! traffic.
//!
//! Three paired runs enforce the contract:
//!
//! 1. the simulator, obs `Off` vs obs `Trace` → bit-identical
//!    serialized `MeasurementLog`s;
//! 2. the live daemon over real TCP with a fixed chunk workload,
//!    obs `Off` vs obs `Trace` **with the scraper running** →
//!    bit-identical merged logs and identical `merged_ranges`;
//! 3. control-frame encoding sampled across every verbosity level →
//!    byte-identical frames.
//!
//! A fourth test pins that each daemon's scrape serves its own metrics:
//! two daemons in one process report disjoint samples.
//!
//! The observability level is process-global, so every test here
//! serializes on [`obs_lock`] and restores `Level::Off` before
//! releasing it.

use std::io::Read;
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use edonkey_honeypots::control::{
    ConnEvent, ControlConn, ControlMessage, Daemon, DaemonConfig, ObsConfig,
};
use edonkey_honeypots::platform::log::{HoneypotLog, QueryRecord, FILE_NONE};
use edonkey_honeypots::platform::{
    storage, ContentStrategy, FileStrategy, HoneypotId, IdStatus, IpHasher, LogChunk, QueryKind,
    ServerInfo,
};
use edonkey_honeypots::proto::{FileId, Ipv4, UserId};
use edonkey_honeypots::sim::{run_scenario, ScenarioConfig};
use netsim::obs::{set_level, Level};
use netsim::{Json, SimTime};

/// Serializes tests that flip the process-global observability level.
fn obs_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Restores `Level::Off` even if the test body panics, so one failure
/// cannot leak verbosity into an unrelated test.
struct LevelReset;

impl Drop for LevelReset {
    fn drop(&mut self) {
        set_level(Level::Off);
    }
}

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("edhp-obs-purity-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Serialized bytes of a measurement log, via the storage codec the
/// platform itself persists with.
fn log_bytes(log: &edonkey_honeypots::platform::MeasurementLog, path: &std::path::Path) -> Vec<u8> {
    storage::save(log, path).expect("save measurement log");
    std::fs::read(path).expect("read serialized log")
}

// ---------------------------------------------------------------------------
// 1. Simulator purity
// ---------------------------------------------------------------------------

/// The same scenario, run dark and run at full verbosity, serializes to
/// the same bytes: sim-side span events observe the run without
/// steering it.
#[test]
fn sim_output_is_bit_identical_across_verbosity() {
    let _guard = obs_lock();
    let _reset = LevelReset;
    let dir = scratch_dir("sim");

    set_level(Level::Off);
    let dark = run_scenario(ScenarioConfig::tiny(42).scaled(0.3));

    set_level(Level::Trace);
    let loud = run_scenario(ScenarioConfig::tiny(42).scaled(0.3));

    assert!(!dark.log.records.is_empty(), "the paired scenario must produce traffic");
    assert_eq!(
        log_bytes(&dark.log, &dir.join("dark.bin")),
        log_bytes(&loud.log, &dir.join("loud.bin")),
        "sim measurement bytes must not depend on the observability level"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// 2. Live daemon purity
// ---------------------------------------------------------------------------

fn synthetic_chunk(agent: u32, records: usize) -> LogChunk {
    let server = ServerInfo::new("purity", Ipv4::new(127, 0, 0, 1), 4661);
    let hasher = IpHasher::from_seed(9);
    let mut log = HoneypotLog::new(HoneypotId(agent), server);
    let name = log.intern_name("purity-peer");
    let file = log.files.intern(FileId::from_seed(b"purity"), "purity.avi", 1_000_000);
    for i in 0..records {
        log.push(QueryRecord {
            at: SimTime::from_millis(i as u64),
            kind: QueryKind::Hello,
            peer: hasher.hash(Ipv4::new(10, 0, (i / 256) as u8, (i % 256) as u8)),
            port: 4662,
            id_status: IdStatus::High,
            user_id: UserId::from_seed(b"purity-user"),
            name,
            version: 0x49,
            file: if i % 2 == 0 { file } else { FILE_NONE },
        });
    }
    log.take_chunk()
}

fn test_agent_config(id: u32) -> edonkey_honeypots::control::AgentConfig {
    edonkey_honeypots::control::AgentConfig {
        id: HoneypotId(id),
        content: ContentStrategy::NoContent,
        files: FileStrategy::Fixed(Vec::new()),
        server: ServerInfo::new("purity", Ipv4::new(127, 0, 0, 1), 4661),
        ip_salt: 7,
        rng_seed: 7 + id as u64,
        heartbeat_ms: 50,
        collect_ms: 60,
        client_name: format!("purity-agent-{id}"),
    }
}

fn wait_for(conn: &mut ControlConn, pred: impl Fn(&ControlMessage) -> bool) -> ControlMessage {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        for ev in conn.poll_until(deadline).expect("poll") {
            if let ConnEvent::Msg(m) = ev {
                if pred(&m) {
                    return m;
                }
            }
        }
        assert!(Instant::now() < deadline, "expected control message never arrived");
    }
}

/// One scrape of a live daemon's snapshot endpoint, parsed.
fn scrape(addr: std::net::SocketAddr) -> Json {
    let mut reply = String::new();
    std::net::TcpStream::connect(addr)
        .expect("connect scrape endpoint")
        .read_to_string(&mut reply)
        .expect("read snapshot");
    reply.parse().unwrap_or_else(|e| panic!("{e}: {reply}"))
}

/// One scrape of a live daemon's snapshot endpoint, down to the
/// reactor-loop latency histogram.
fn reactor_loop_histogram(addr: std::net::SocketAddr) -> Json {
    let snap = scrape(addr);
    assert_eq!(snap["schema"].as_str(), Some("obs-v2"), "{snap}");
    assert!(snap["sample"].as_u64().is_some(), "snapshot sample number missing: {snap}");
    snap["platform"]["reactor_loop_micros"].clone()
}

/// Runs the fixed three-agent chunk workload against a fresh daemon and
/// returns the serialized merged log plus per-agent merge ranges.
fn run_fixed_workload(
    obs: Option<ObsConfig>,
    path: &std::path::Path,
) -> (Vec<u8>, Vec<Vec<(u64, u64)>>) {
    const AGENTS: u32 = 3;
    const CHUNKS: u64 = 4;

    let observed = obs.is_some();
    let cfg = DaemonConfig { heartbeat_timeout_ms: 60_000, obs, ..DaemonConfig::default() };
    let daemon =
        Daemon::start(cfg, (0..AGENTS).map(test_agent_config).collect(), Box::new(|_, _, _| {}))
            .expect("start daemon");

    // The verbose run must genuinely be observed while bytes are
    // compared: its scrape endpoint is live for the whole workload.
    assert_eq!(daemon.obs_addr().is_some(), observed, "scraper endpoint mirrors the obs config");
    // Count the samples already in the histogram before the workload.
    let loop_samples_before = daemon
        .obs_addr()
        .map(|addr| reactor_loop_histogram(addr)["count"].as_u64().expect("histogram count"));

    for agent in 0..AGENTS {
        let mut conn = ControlConn::connect(daemon.addr()).expect("connect");
        conn.set_read_timeout(Duration::from_millis(10)).expect("timeout");
        conn.send(&ControlMessage::Register { agent, incarnation: 0, resume: false })
            .expect("register");
        wait_for(&mut conn, |m| matches!(m, ControlMessage::RegisterAck { .. }));
        for seq in 0..CHUNKS {
            conn.send(&ControlMessage::LogUpload { agent, seq, chunk: synthetic_chunk(agent, 64) })
                .expect("upload");
            wait_for(
                &mut conn,
                |m| matches!(m, ControlMessage::ChunkAck { next_seq, .. } if *next_seq == seq + 1),
            );
        }
        conn.send(&ControlMessage::Goodbye { agent, final_seq: CHUNKS }).expect("goodbye");
    }

    // The observed daemon's reactor-loop histogram goes hot while it runs
    // (the shards flush their latency batches into the registry the
    // scraper samples), with ordered percentiles.
    if let (Some(addr), Some(before)) = (daemon.obs_addr(), loop_samples_before) {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let hist = reactor_loop_histogram(addr);
            if hist["count"].as_u64() > Some(before) {
                let (p50, p99) = (hist["p50"].as_u64(), hist["p99"].as_u64());
                assert!(p50.is_some() && p50 <= p99, "percentiles must be ordered: {hist}");
                break;
            }
            assert!(Instant::now() < deadline, "reactor-loop histogram never went hot: {hist}");
            std::thread::sleep(Duration::from_millis(25));
        }
    }

    let (log, metrics, _order) =
        daemon.finish(SimTime::from_secs(60), 4, 1, Duration::from_millis(500));
    let ranges = metrics.agents.iter().map(|a| a.merged_ranges.clone()).collect();
    (log_bytes(&log, path), ranges)
}

/// The live control plane, driven twice with the identical workload:
/// once dark, once at `Trace` with the snapshot scraper live. Merged
/// measurement bytes and merge ranges must match exactly.
#[test]
fn daemon_merge_is_bit_identical_across_verbosity() {
    let _guard = obs_lock();
    let _reset = LevelReset;
    let dir = scratch_dir("daemon");

    set_level(Level::Off);
    let (dark_bytes, dark_ranges) = run_fixed_workload(None, &dir.join("dark.bin"));

    set_level(Level::Trace);
    let obs = ObsConfig {
        interval: Duration::from_millis(25),
        series_path: Some(dir.join("series.jsonl")),
        serve: true,
    };
    let (loud_bytes, loud_ranges) = run_fixed_workload(Some(obs), &dir.join("loud.bin"));

    assert_eq!(
        dark_bytes, loud_bytes,
        "merged MeasurementLog bytes must not depend on the observability level"
    );
    assert_eq!(dark_ranges, loud_ranges, "merge ranges must not depend on the observability level");
    assert_eq!(dark_ranges, vec![vec![(0, 3)]; 3], "every agent merges one contiguous range");

    // The verbose run really was observed: its time series exists and
    // carries the schema marker.
    let series = std::fs::read_to_string(dir.join("series.jsonl")).expect("series written");
    assert!(
        series.lines().next().is_some_and(|l| l.contains("\"schema\":\"obs-v2\"")),
        "scraper series must carry the obs-v2 schema: {series:.120}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// Two daemons in one process keep disjoint records: the one that merges
/// chunks shows them in its metrics, and the idle one's scrape reports
/// none of them.
#[test]
fn two_daemons_in_one_process_scrape_disjoint_metrics() {
    const CHUNKS: u64 = 4;
    let idle_cfg = DaemonConfig {
        heartbeat_timeout_ms: 60_000,
        obs: Some(ObsConfig {
            interval: Duration::from_millis(10),
            series_path: None,
            serve: true,
        }),
        ..DaemonConfig::default()
    };
    let idle = Daemon::start(idle_cfg, vec![test_agent_config(0)], Box::new(|_, _, _| {}))
        .expect("start idle daemon");
    let busy_cfg = DaemonConfig { heartbeat_timeout_ms: 60_000, ..DaemonConfig::default() };
    let busy = Daemon::start(busy_cfg, vec![test_agent_config(0)], Box::new(|_, _, _| {}))
        .expect("start busy daemon");

    let mut conn = ControlConn::connect(busy.addr()).expect("connect");
    conn.set_read_timeout(Duration::from_millis(10)).expect("timeout");
    conn.send(&ControlMessage::Register { agent: 0, incarnation: 0, resume: false })
        .expect("register");
    wait_for(&mut conn, |m| matches!(m, ControlMessage::RegisterAck { .. }));
    for seq in 0..CHUNKS {
        conn.send(&ControlMessage::LogUpload { agent: 0, seq, chunk: synthetic_chunk(0, 64) })
            .expect("upload");
        wait_for(
            &mut conn,
            |m| matches!(m, ControlMessage::ChunkAck { next_seq, .. } if *next_seq == seq + 1),
        );
    }
    let busy_metrics = busy.metrics();
    assert_eq!(busy_metrics.total_chunks_merged(), CHUNKS);
    assert!(busy_metrics.merge_dwell_micros.count() > 0, "the busy daemon timed its merges");

    // A sample taken after every merge above: two samples on from the
    // one the endpoint serves now.
    let addr = idle.obs_addr().expect("idle daemon serves its scrape");
    let after = scrape(addr)["sample"].as_u64().expect("sample number") + 2;
    let deadline = Instant::now() + Duration::from_secs(5);
    let snap = loop {
        let snap = scrape(addr);
        if snap["sample"].as_u64() >= Some(after) {
            break snap;
        }
        assert!(Instant::now() < deadline, "the idle daemon's scraper stopped sampling: {snap}");
        std::thread::sleep(Duration::from_millis(10));
    };
    assert_eq!(snap["platform"]["chunks_merged"].as_u64(), Some(0), "{snap}");
    assert_eq!(snap["platform"]["merge_dwell_micros"]["count"].as_u64(), Some(0), "{snap}");

    drop(conn);
    drop(busy);
    drop(idle);
}

// ---------------------------------------------------------------------------
// 3. Control-frame purity
// ---------------------------------------------------------------------------

/// Every control frame encodes to the same bytes at every verbosity:
/// the wire protocol has no observability side channel.
#[test]
fn control_frames_are_bit_identical_across_verbosity() {
    let _guard = obs_lock();
    let _reset = LevelReset;

    let samples: Vec<ControlMessage> = vec![
        ControlMessage::Register { agent: 3, incarnation: 2, resume: true },
        ControlMessage::RegisterAck { agent: 3, next_seq: 17, window: 8 },
        ControlMessage::Heartbeat {
            agent: 3,
            seq: 99,
            sent_micros: 1_234,
            rtt_micros: 250,
            flags: 0,
        },
        ControlMessage::LogUpload { agent: 3, seq: 17, chunk: synthetic_chunk(3, 16) },
        ControlMessage::ChunkAck { next_seq: 18, window: 8 },
        ControlMessage::Goodbye { agent: 3, final_seq: 18 },
    ];

    set_level(Level::Off);
    let dark: Vec<Vec<u8>> = samples.iter().map(|m| m.encode_frame()).collect();

    for level in [Level::Error, Level::Warn, Level::Info, Level::Debug, Level::Trace] {
        set_level(level);
        let loud: Vec<Vec<u8>> = samples.iter().map(|m| m.encode_frame()).collect();
        assert_eq!(dark, loud, "control frames must be byte-identical at {level:?}");
    }
}
