//! Chaos acceptance tests of the crash-safe pipeline (PR 4): a seeded
//! kill/restart schedule takes down agents *and* the manager — mid-upload,
//! mid-checkpoint, mid-relaunch — and the recovered measurement must be
//! bit-identical to the in-process reference (journal replay in daemon
//! merge order), with no chunk ever merged twice.

use std::time::Duration;

use edonkey_honeypots::control::checkpoint::{self, SlotCheckpoint};
use edonkey_honeypots::control::{
    AgentConfig, CheckpointOptions, ConnEvent, ControlConn, ControlMessage, Daemon, DaemonConfig,
    FaultPlan, LoopbackDeployment, LoopbackOptions, LoopbackSpec, ManagerCheckpoint,
};
use edonkey_honeypots::platform::log::{FileTable, SharedLists};
use edonkey_honeypots::platform::{
    AdvertisedFile, ContentStrategy, FileStrategy, HoneypotId, LogChunk, ServerInfo,
};
use edonkey_honeypots::proto::{FileId, Ipv4};
use netsim::SimTime;

fn fixed_spec(tag: &[u8], fault: FaultPlan) -> LoopbackSpec {
    let file = FileId::from_seed(tag);
    LoopbackSpec {
        content: ContentStrategy::NoContent,
        files: FileStrategy::Fixed(vec![AdvertisedFile::new(
            file,
            format!("{} file.avi", String::from_utf8_lossy(tag)),
            50_000_000,
        )]),
        fault,
        impair: None,
        spool_faults: None,
    }
}

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("edhp-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// The headline chaos schedule: three agents — one clean, one killed
/// right *after* sending its first upload (the daemon has it; the agent
/// never saw the ack), one killed right *before* sending (the chunk
/// exists only in its spool) — plus a manager crash after a checkpoint
/// landed, with a torn snapshot temp file planted to simulate dying
/// mid-checkpoint write.  Recovery must relaunch everything against the
/// new daemon, replay the spooled chunk, dedupe anything re-sent across
/// the crash boundary, and produce a measurement bit-identical to the
/// in-process pipeline fed the same chunks in the same order.
#[test]
fn chaos_schedule_recovers_bit_identical() {
    let root = scratch_dir("full");
    let ckpt_dir = root.join("ckpt");
    let spool_dir = root.join("spool");

    let specs = vec![
        fixed_spec(b"alpha", FaultPlan::default()),
        fixed_spec(b"bravo", FaultPlan { kill_after_chunk: Some(0), ..FaultPlan::default() }),
        fixed_spec(b"charlie", FaultPlan { kill_before_chunk: Some(0), ..FaultPlan::default() }),
    ];
    let opts = LoopbackOptions {
        daemon: DaemonConfig {
            checkpoint: Some(CheckpointOptions::new(&ckpt_dir)),
            ..DaemonConfig::default()
        },
        spool_dir: Some(spool_dir),
        ..LoopbackOptions::default()
    };
    let mut deployment = LoopbackDeployment::start(specs, opts).expect("start deployment");
    assert!(deployment.wait_ready(Duration::from_secs(10)), "agents never became ready");

    // Round 1: traffic against every honeypot.  Bravo dies right after
    // shipping chunk 0 (merged, unacked on its side); charlie dies right
    // before shipping it (spool only).  Charlie's chunk 0 can therefore
    // reach the daemon *only* through the spool replay of its relaunched
    // incarnation — the tentpole's durability claim in one assertion.
    for agent in 0..3u32 {
        let file = FileId::from_seed([b"alpha" as &[u8], b"bravo", b"charlie"][agent as usize]);
        assert!(
            deployment.drive_download(&format!("round1-peer-{agent}"), agent, file, 1, &[]),
            "agent {agent} honeypot did not answer"
        );
    }
    assert!(
        deployment.wait_chunks(3, Duration::from_secs(20)),
        "round-1 chunks never merged (got {}; charlie's must arrive via spool replay)",
        deployment.daemon().chunks_collected()
    );

    // Both killed agents must have been declared dead and relaunched.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while deployment.daemon().relaunch_count() < 2 {
        assert!(std::time::Instant::now() < deadline, "killed agents were never relaunched");
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(deployment.wait_ready(Duration::from_secs(10)), "relaunched agents never came back");

    // Let at least one periodic snapshot land (interval is 100 ms), then
    // simulate a crash *mid-checkpoint write*: a torn temp file with
    // absurd contents appears next to the good snapshot.  Recovery must
    // ignore it — only the atomically renamed `manager.ckpt` counts.
    std::thread::sleep(Duration::from_millis(300));
    let doctored = ManagerCheckpoint {
        slots: vec![SlotCheckpoint { expected_seq: 999, ..SlotCheckpoint::default() }; 3],
    };
    checkpoint::write_torn_tmp(&ckpt_dir, &doctored, 20).expect("plant torn tmp");

    // The manager crash: in-memory merge state, metrics and connections
    // all gone.  Recovery rebuilds the core from the chunk WAL (merge
    // order preserved), overlays supervision counters from the snapshot,
    // and relaunches the agents against the new address.
    let merged_before_crash = deployment.daemon().chunks_collected();
    deployment.crash_daemon();
    deployment.recover_daemon().expect("recover daemon");

    // Old agent threads burn through their reconnect budget (~4 s) and
    // give up; relaunched incarnations steal the spool locks after a 2 s
    // wait.  Generous timeout: this is the slowest path in the suite.
    assert!(
        deployment.wait_ready(Duration::from_secs(30)),
        "agents never re-registered with the recovered daemon"
    );
    assert_eq!(
        deployment.daemon().chunks_collected(),
        merged_before_crash,
        "WAL replay must restore exactly the pre-crash merges"
    );

    // Round 2: the recovered platform keeps measuring.
    for agent in 0..3u32 {
        let file = FileId::from_seed([b"alpha" as &[u8], b"bravo", b"charlie"][agent as usize]);
        let snapshot = |deployment: &LoopbackDeployment| {
            let m = deployment.daemon().metrics();
            let a = &m.agents[agent as usize];
            format!(
                "deaths {} relaunches {} registrations {} peer addr {:?}",
                a.deaths,
                a.relaunches,
                a.registrations,
                deployment.daemon().agent_peer_addr(agent)
            )
        };
        let before = snapshot(&deployment);
        let t0 = std::time::Instant::now();
        let answered =
            deployment.drive_download(&format!("round2-peer-{agent}"), agent, file, 1, &[]);
        assert!(
            answered,
            "agent {agent} honeypot did not answer after manager recovery \
             (before: {before}; after {:?}: {})",
            t0.elapsed(),
            snapshot(&deployment)
        );
    }
    assert!(
        deployment.wait_chunks(6, Duration::from_secs(20)),
        "round-2 chunks never merged after recovery (got {})",
        deployment.daemon().chunks_collected()
    );

    let outcome = deployment.finish(SimTime::from_secs(60), 4, 1, Duration::from_secs(5));

    // The measurement: both rounds present, all three honeypots.
    assert!(!outcome.log.records.is_empty(), "recovered measurement must carry records");
    assert_eq!(outcome.log.honeypots.len(), 3);
    assert!(outcome.log.records.len() >= 6, "expected hellos from both rounds");

    // Bit-identical recovery: replaying the pre-transport journal through
    // a fresh in-process manager in (recovered) daemon merge order
    // reproduces the live log exactly — nothing lost to either crash,
    // nothing duplicated, order preserved across the WAL replay.
    assert_eq!(outcome.replay_divergence(), None);

    // Exactly-once accounting: per-agent merged sequence ranges must
    // agree with the merge counters — no chunk merged twice.
    assert_eq!(outcome.metrics.double_merge_violation(), None);
    assert_eq!(outcome.metrics.manager_restores, 1, "exactly one manager recovery");

    // The fault schedule shows up in the supervision counters, and the
    // snapshot carries them across the restart: both scripted kills are
    // still there (post-crash launches start from `Pending` and are not
    // relaunch incidents).
    assert!(outcome.metrics.agents[1].deaths >= 1);
    assert!(outcome.metrics.agents[2].deaths >= 1);
    assert!(outcome.metrics.agents[1].relaunches >= 1, "bravo's kill survives the restart");
    assert!(outcome.metrics.agents[2].relaunches >= 1, "charlie's kill survives the restart");

    // Exit census: the two scripted kills, the three pre-crash threads
    // that exhausted their reconnect budget against the dead address, and
    // a clean shutdown for every final incarnation.
    use edonkey_honeypots::control::AgentExit;
    let killed = outcome.exits.iter().filter(|e| matches!(e, AgentExit::Killed)).count();
    let gave_up = outcome.exits.iter().filter(|e| matches!(e, AgentExit::GaveUp)).count();
    let shutdown = outcome.exits.iter().filter(|e| matches!(e, AgentExit::Shutdown)).count();
    assert_eq!(killed, 2, "exactly the two scripted kills");
    assert!(gave_up >= 3, "pre-crash threads must give up on the dead address");
    assert!(shutdown >= 3, "every final incarnation must shut down cleanly");
    // Eight launches are scheduled: three first launches, two relaunches
    // after the kills, three after the manager recovery.  A relaunch that
    // is still waiting out its predecessor's spool lock is in flight, not
    // lost, and must not be launched again (the doubled incarnations all
    // registered, each one leaving its agent without a peer address
    // until its `Ready`).
    assert!(
        outcome.exits.len() <= 9,
        "launches in flight were doubled: {} agent threads ran",
        outcome.exits.len()
    );

    let _ = std::fs::remove_dir_all(&root);
}

/// The snapshot is an optimisation, not a correctness dependency: delete
/// it outright after the crash and recovery must still reproduce the
/// measurement from the chunk WAL alone (supervision counters reset, the
/// data does not).
#[test]
fn recovery_from_wal_alone_when_snapshot_is_missing() {
    let root = scratch_dir("wal-only");
    let ckpt_dir = root.join("ckpt");

    let specs = vec![fixed_spec(b"solo", FaultPlan::default())];
    let opts = LoopbackOptions {
        daemon: DaemonConfig {
            checkpoint: Some(CheckpointOptions::new(&ckpt_dir)),
            ..DaemonConfig::default()
        },
        spool_dir: Some(root.join("spool")),
        ..LoopbackOptions::default()
    };
    let mut deployment = LoopbackDeployment::start(specs, opts).expect("start deployment");
    assert!(deployment.wait_ready(Duration::from_secs(10)));

    assert!(deployment.drive_download("wal-peer-1", 0, FileId::from_seed(b"solo"), 1, &[]));
    assert!(deployment.wait_chunks(1, Duration::from_secs(10)));

    let merged_before_crash = deployment.daemon().chunks_collected();
    deployment.crash_daemon();
    let state = ckpt_dir.join(checkpoint::STATE_FILE);
    if state.exists() {
        std::fs::remove_file(&state).expect("drop snapshot");
    }
    deployment.recover_daemon().expect("recover daemon");
    assert!(deployment.wait_ready(Duration::from_secs(30)));
    assert_eq!(
        deployment.daemon().chunks_collected(),
        merged_before_crash,
        "WAL alone must restore the merges"
    );

    assert!(deployment.drive_download("wal-peer-2", 0, FileId::from_seed(b"solo"), 1, &[]));
    assert!(deployment.wait_chunks(2, Duration::from_secs(20)));

    let outcome = deployment.finish(SimTime::from_secs(60), 4, 1, Duration::from_secs(5));
    assert_eq!(outcome.replay_divergence(), None);
    assert_eq!(outcome.metrics.double_merge_violation(), None);
    assert_eq!(outcome.metrics.manager_restores, 1);

    let _ = std::fs::remove_dir_all(&root);
}

/// Exactly-once at the merge boundary, observed directly: a raw control
/// connection impersonating an agent uploads the same sequence twice.
/// The daemon must re-acknowledge (so a retrying agent makes progress)
/// without re-merging (so the measurement never double-counts), and the
/// sequence-range ledger must record one merge for seq 0.
#[test]
fn duplicate_uploads_are_reacked_never_remerged() {
    let config = AgentConfig {
        id: HoneypotId(0),
        content: ContentStrategy::NoContent,
        files: FileStrategy::Fixed(Vec::new()),
        server: ServerInfo::new("dup-test", Ipv4::new(127, 0, 0, 1), 4661),
        ip_salt: 7,
        rng_seed: 7,
        heartbeat_ms: 50,
        collect_ms: 60,
        client_name: "dup-agent".into(),
    };
    // No-op launcher: this test *is* the agent.
    let daemon = Daemon::start(
        DaemonConfig { heartbeat_timeout_ms: 60_000, ..DaemonConfig::default() },
        vec![config.clone()],
        Box::new(|_, _, _| {}),
    )
    .expect("start daemon");

    let mut conn = ControlConn::connect(daemon.addr()).expect("connect");
    conn.set_read_timeout(Duration::from_millis(10)).expect("timeout");
    conn.send(&ControlMessage::Register { agent: 0, incarnation: 0, resume: false })
        .expect("register");
    wait_for(&mut conn, |m| matches!(m, ControlMessage::RegisterAck { next_seq: 0, .. }));

    let chunk = LogChunk {
        honeypot: HoneypotId(0),
        server: config.server.clone(),
        records: Vec::new(),
        shared_lists: SharedLists::new(),
        peer_names: Vec::new(),
        files: FileTable::new(),
    };
    let upload = ControlMessage::LogUpload { agent: 0, seq: 0, chunk };
    conn.send(&upload).expect("first upload");
    wait_for(&mut conn, |m| matches!(m, ControlMessage::ChunkAck { next_seq: 1, .. }));
    // The retry case: the ack was lost on the agent's side, so the exact
    // same frame arrives again.  The cumulative frontier is unchanged —
    // the daemon re-acknowledges `next_seq: 1` without re-merging.
    conn.send(&upload).expect("second upload");
    wait_for(&mut conn, |m| matches!(m, ControlMessage::ChunkAck { next_seq: 1, .. }));

    let metrics = daemon.metrics();
    assert_eq!(metrics.agents[0].duplicate_chunks, 1, "the re-send must be counted");
    assert_eq!(metrics.agents[0].merged_ranges, vec![(0, 0)], "one merge of seq 0");
    assert_eq!(metrics.double_merge_violation(), None);

    conn.send(&ControlMessage::Goodbye { agent: 0, final_seq: 1 }).expect("goodbye");
    let (_log, metrics, order) =
        daemon.finish(SimTime::from_secs(60), 4, 1, Duration::from_millis(500));
    assert_eq!(order, vec![(0, 0)], "merge order records seq 0 exactly once");
    assert_eq!(metrics.agents[0].chunks_merged, 1);
}

/// The windowed-upload chaos case (PR 6): an agent with a durable spool
/// dies mid-window — some chunks acknowledged (and trimmed from its
/// spool), the last one sent but never acknowledged.  The relaunched
/// incarnation registers with `resume`, learns the cumulative ack
/// frontier from its `RegisterAck`, trims everything the daemon already
/// merged, and continues from there.  The recovered measurement must be
/// bit-identical and no sequence may merge twice.
#[test]
fn partially_acked_window_survives_agent_crash() {
    let root = scratch_dir("window");

    // Die right after *sending* seq 2: by then seqs 0 and 1 have been
    // acknowledged cumulatively and trimmed, seq 2 is in flight — a
    // partially-acked window at the moment of death.
    let specs = vec![fixed_spec(
        b"window",
        FaultPlan { kill_after_chunk: Some(2), ..FaultPlan::default() },
    )];
    let opts =
        LoopbackOptions { spool_dir: Some(root.join("spool")), ..LoopbackOptions::default() };
    let deployment = LoopbackDeployment::start(specs, opts).expect("start deployment");
    assert!(deployment.wait_ready(Duration::from_secs(10)), "agent never became ready");

    // Drive traffic until three chunks have merged.  Individual download
    // attempts may land in the agent's death window and fail — that is
    // the point of the schedule — so only the merge counter gates.
    let file = FileId::from_seed(b"window");
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    let mut round = 0u32;
    while deployment.daemon().chunks_collected() < 3 {
        assert!(std::time::Instant::now() < deadline, "three chunks never merged");
        let _ = deployment.drive_download(&format!("win-peer-{round}"), 0, file, 1, &[]);
        round += 1;
        std::thread::sleep(Duration::from_millis(80));
    }

    // Supervision must declare the death and relaunch; the relaunched
    // incarnation resumes from the frontier in its `RegisterAck`.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while deployment.daemon().relaunch_count() < 1 {
        assert!(std::time::Instant::now() < deadline, "killed agent was never relaunched");
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(deployment.wait_ready(Duration::from_secs(10)), "relaunch never came back");

    // The resumed incarnation keeps measuring past the crash.
    let merged = deployment.daemon().chunks_collected();
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while deployment.daemon().chunks_collected() <= merged {
        assert!(std::time::Instant::now() < deadline, "no chunk merged after the relaunch");
        let _ = deployment.drive_download(&format!("win-post-{round}"), 0, file, 1, &[]);
        round += 1;
        std::thread::sleep(Duration::from_millis(80));
    }

    let outcome = deployment.finish(SimTime::from_secs(60), 4, 1, Duration::from_secs(5));

    // Bit-identical recovery and exactly-once merging across the
    // partially-acked window.
    assert_eq!(outcome.replay_divergence(), None, "recovered log must replay bit-identical");
    assert_eq!(outcome.metrics.double_merge_violation(), None);
    assert!(outcome.metrics.agents[0].deaths >= 1, "the scripted kill must be observed");

    // The merged-sequence ledger must be one contiguous range from 0:
    // nothing lost at the crash boundary, nothing merged twice.
    let ranges = &outcome.metrics.agents[0].merged_ranges;
    assert_eq!(ranges.len(), 1, "merges must form one contiguous range, got {ranges:?}");
    assert_eq!(ranges[0].0, 0, "merges must start at seq 0, got {ranges:?}");

    let _ = std::fs::remove_dir_all(&root);
}

/// Polls `conn` until a message matching `pred` arrives (5 s budget).
fn wait_for(conn: &mut ControlConn, pred: impl Fn(&ControlMessage) -> bool) {
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        for ev in conn.poll_until(deadline).expect("poll") {
            if let ConnEvent::Msg(m) = ev {
                if pred(&m) {
                    return;
                }
            }
        }
        assert!(std::time::Instant::now() < deadline, "expected control message never arrived");
    }
}
