//! Acceptance tests of the live control plane: a full loopback deployment
//! (manager daemon + eDonkey server + supervised agents over real TCP)
//! with injected faults, proved lossless against the in-process pipeline
//! by replaying the pre-transport chunk journal in daemon merge order.

use std::time::Duration;

use edonkey_honeypots::control::{
    DaemonConfig, FaultPlan, LoopbackDeployment, LoopbackOptions, LoopbackSpec,
};
use edonkey_honeypots::platform::{AdvertisedFile, ContentStrategy, FileStrategy};
use edonkey_honeypots::proto::FileId;
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

/// The headline scenario from the issue: three agents, one killed right
/// after its first upload (must be declared dead and relaunched, its
/// upload stream resumed), one corrupting the CRC of its first upload
/// frame (must be re-requested, never merged twice), and the resulting
/// measurement must equal what the in-process pipeline produces from the
/// exact same chunks.
#[test]
fn loopback_deployment_survives_crash_and_corruption() {
    let specs = vec![
        fixed_spec(b"alpha", FaultPlan::default()),
        fixed_spec(b"bravo", FaultPlan { kill_after_chunk: Some(0), ..FaultPlan::default() }),
        fixed_spec(b"charlie", FaultPlan { corrupt_chunk_seq: Some(0), ..FaultPlan::default() }),
    ];
    let opts = LoopbackOptions { daemon: DaemonConfig::default(), ..LoopbackOptions::default() };
    let deployment = LoopbackDeployment::start(specs, opts).expect("start deployment");
    assert!(deployment.wait_ready(Duration::from_secs(10)), "agents never became ready");

    // Round 1: one download attempt against each honeypot, so every agent
    // has something to upload as chunk 0.
    for agent in 0..3u32 {
        let file = FileId::from_seed([b"alpha" as &[u8], b"bravo", b"charlie"][agent as usize]);
        assert!(
            deployment.drive_download(&format!("round1-peer-{agent}"), agent, file, 1, &[]),
            "agent {agent} honeypot did not answer"
        );
    }
    // All three chunk 0s must merge: the well-behaved one directly, the
    // corrupt one after a ChunkRetry, and the killer's right before it
    // dies (it crashes after the send, so the daemon still merges it).
    assert!(
        deployment.wait_chunks(3, Duration::from_secs(10)),
        "round-1 chunks never merged (got {})",
        deployment.daemon().chunks_collected()
    );

    // Agent 1 is now dead.  The supervision loop must notice the silence,
    // declare it dead, and relaunch it — exactly once.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while deployment.daemon().relaunch_count() < 1 {
        assert!(std::time::Instant::now() < deadline, "agent 1 was never relaunched");
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(deployment.wait_ready(Duration::from_secs(10)), "relaunched agent never came back");

    // Round 2: traffic against every agent again — including the
    // relaunched incarnation, whose upload stream must resume past the
    // chunk its predecessor never saw acknowledged.
    for agent in 0..3u32 {
        let file = FileId::from_seed([b"alpha" as &[u8], b"bravo", b"charlie"][agent as usize]);
        assert!(
            deployment.drive_download(&format!("round2-peer-{agent}"), agent, file, 1, &[]),
            "agent {agent} honeypot did not answer after relaunch"
        );
    }
    assert!(
        deployment.wait_chunks(6, Duration::from_secs(10)),
        "round-2 chunks never merged (got {})",
        deployment.daemon().chunks_collected()
    );

    let outcome = deployment.finish(SimTime::from_secs(60), 4, 1, Duration::from_secs(5));

    // The measurement itself: records from both rounds, through two
    // sockets each, all accounted for.
    assert!(!outcome.log.records.is_empty(), "live measurement must carry records");
    assert_eq!(outcome.log.honeypots.len(), 3);
    assert!(
        outcome.log.records.len() >= 6,
        "expected hellos from both rounds, got {} records",
        outcome.log.records.len()
    );

    // Metrics show exactly the injected faults: one relaunch (the killed
    // agent), one chunk retry (the corrupted frame), and the relaunched
    // incarnation registered with resume.
    assert_eq!(outcome.metrics.total_relaunches(), 1, "exactly the injected crash");
    assert_eq!(outcome.metrics.agents[1].relaunches, 1);
    assert_eq!(outcome.metrics.total_chunk_retries(), 1, "exactly the injected corruption");
    assert_eq!(outcome.metrics.agents[2].chunk_retries, 1);
    assert_eq!(outcome.metrics.corrupt_frames, 1);
    assert!(outcome.metrics.total_resumes() >= 1, "the relaunch must resume the stream");
    assert_eq!(outcome.metrics.agents[1].deaths, 1);
    assert!(outcome.metrics.total_heartbeats() > 0);

    // The equality proof: replaying the pre-transport journal through a
    // fresh in-process manager in daemon merge order reproduces the live
    // measurement exactly — the control plane added and lost nothing.
    assert_eq!(outcome.replay_divergence(), None);

    // The metrics JSON report is well-formed enough for the runner.
    let json = outcome.metrics.to_json();
    assert!(json.contains("\"relaunches\": 1"));
    assert!(json.contains("\"chunk_retries\": 1"));
}

/// A truncated upload frame (half the bytes, then the connection drops)
/// must not lose or duplicate the chunk: the agent reconnects with
/// `resume`, learns the daemon's position, and re-sends the clean frame.
#[test]
fn truncated_upload_resumes_without_loss() {
    let specs = vec![fixed_spec(
        b"trunc",
        FaultPlan { truncate_chunk_seq: Some(0), ..FaultPlan::default() },
    )];
    let deployment =
        LoopbackDeployment::start(specs, LoopbackOptions::default()).expect("start deployment");
    assert!(deployment.wait_ready(Duration::from_secs(10)));

    let file = FileId::from_seed(b"trunc");
    assert!(deployment.drive_download("trunc-peer", 0, file, 1, &[]));
    assert!(
        deployment.wait_chunks(1, Duration::from_secs(10)),
        "truncated chunk never made it through the resume path"
    );

    let outcome = deployment.finish(SimTime::from_secs(60), 4, 1, Duration::from_secs(5));
    assert!(!outcome.log.records.is_empty());
    assert!(outcome.metrics.total_resumes() >= 1, "the reconnect must register as a resume");
    assert_eq!(outcome.metrics.total_relaunches(), 0, "a reconnect is not a relaunch");
    assert_eq!(outcome.replay_divergence(), None);
}

/// A clean two-agent run: no faults, no relaunches, no retries — and the
/// replay equality still holds (the proof is not vacuous only under
/// faults).
#[test]
fn clean_deployment_is_faultless_and_lossless() {
    let specs = vec![
        fixed_spec(b"clean-a", FaultPlan::default()),
        fixed_spec(b"clean-b", FaultPlan::default()),
    ];
    let deployment =
        LoopbackDeployment::start(specs, LoopbackOptions::default()).expect("start deployment");
    assert!(deployment.wait_ready(Duration::from_secs(10)));

    for (agent, tag) in [(0u32, b"clean-a" as &[u8]), (1, b"clean-b")] {
        assert!(deployment.drive_download("clean-peer", agent, FileId::from_seed(tag), 1, &[]));
    }
    assert!(deployment.wait_chunks(2, Duration::from_secs(10)));

    let outcome = deployment.finish(SimTime::from_secs(60), 4, 1, Duration::from_secs(5));
    assert_eq!(outcome.metrics.total_relaunches(), 0);
    assert_eq!(outcome.metrics.total_chunk_retries(), 0);
    assert_eq!(outcome.metrics.corrupt_frames, 0);
    assert_eq!(outcome.metrics.agents.len(), 2);
    assert!(outcome.metrics.agents.iter().all(|a| a.registrations >= 1));
    assert!(!outcome.log.records.is_empty());
    assert_eq!(outcome.replay_divergence(), None);
}

/// `Ready` means the honeypot can answer: a hello sent the moment
/// `wait_ready` returns must be answered, in every one of many short
/// deployments.  (An agent that reported `Ready` before its server login
/// completed had its first hellos dropped.)
#[test]
fn a_hello_right_after_ready_is_always_answered() {
    for cycle in 0..20 {
        let specs = vec![
            fixed_spec(b"ready-a", FaultPlan::default()),
            fixed_spec(b"ready-b", FaultPlan::default()),
        ];
        let deployment =
            LoopbackDeployment::start(specs, LoopbackOptions::default()).expect("start deployment");
        assert!(deployment.wait_ready(Duration::from_secs(10)), "cycle {cycle}: never ready");
        for (agent, tag) in [(0u32, b"ready-a" as &[u8]), (1, b"ready-b")] {
            assert!(
                deployment.drive_download("ready-peer", agent, FileId::from_seed(tag), 0, &[]),
                "cycle {cycle}: agent {agent} left the hello unanswered"
            );
        }
        deployment.finish(SimTime::from_secs(60), 4, 1, Duration::from_secs(5));
    }
}

/// Stopping is woken by the stop, not by the supervision timer: with a
/// five-second tick, `finish` must still return promptly.
#[test]
fn finish_does_not_wait_for_the_supervision_tick() {
    let specs = vec![fixed_spec(b"tick", FaultPlan::default())];
    let opts = LoopbackOptions {
        daemon: DaemonConfig { supervision_tick_ms: 5_000, ..DaemonConfig::default() },
        ..LoopbackOptions::default()
    };
    let deployment = LoopbackDeployment::start(specs, opts).expect("start deployment");
    assert!(deployment.wait_ready(Duration::from_secs(10)));
    let started = std::time::Instant::now();
    let outcome = deployment.finish(SimTime::from_secs(60), 4, 1, Duration::from_secs(5));
    let took = started.elapsed();
    assert!(took < Duration::from_secs(1), "finish took {took:?} with a 5 s supervision tick");
    assert_eq!(outcome.replay_divergence(), None);
}
