//! Acceptance tests of the windowed, pipelined upload protocol (PR 6):
//! a raw control connection impersonates an agent so every protocol
//! transition — window grant, cumulative acks, duplicates, holes,
//! reconnect resume — is observed directly on the wire, not through the
//! agent runtime.
//!
//! The `swarm_` test is `#[ignore]`d by default: it supervises hundreds
//! of concurrent windowed uploaders and exists for the CI smoke job
//! (`cargo test --release --test windowed_upload -- --ignored`).

use std::time::Duration;

use edonkey_honeypots::control::{
    AgentConfig, ConnEvent, ControlConn, ControlMessage, Daemon, DaemonConfig,
};
use edonkey_honeypots::platform::log::{FileTable, SharedLists};
use edonkey_honeypots::platform::{
    ContentStrategy, FileStrategy, HoneypotId, LogChunk, ServerInfo,
};
use edonkey_honeypots::proto::Ipv4;
use netsim::SimTime;

fn test_config(id: u32) -> AgentConfig {
    AgentConfig {
        id: HoneypotId(id),
        content: ContentStrategy::NoContent,
        files: FileStrategy::Fixed(Vec::new()),
        server: ServerInfo::new("window-test", Ipv4::new(127, 0, 0, 1), 4661),
        ip_salt: 7,
        rng_seed: 7 + id as u64,
        heartbeat_ms: 50,
        collect_ms: 60,
        client_name: format!("window-agent-{id}"),
    }
}

/// A daemon whose only agents are the raw connections the test drives:
/// the launcher is a no-op and the heartbeat timeout is effectively off.
fn raw_daemon(cfg: DaemonConfig, agents: u32) -> Daemon {
    let configs = (0..agents).map(test_config).collect();
    Daemon::start(
        DaemonConfig { heartbeat_timeout_ms: 60_000, ..cfg },
        configs,
        Box::new(|_, _, _| {}),
    )
    .expect("start daemon")
}

fn empty_chunk(agent: u32) -> LogChunk {
    LogChunk {
        honeypot: HoneypotId(agent),
        server: test_config(agent).server,
        records: Vec::new(),
        shared_lists: SharedLists::new(),
        peer_names: Vec::new(),
        files: FileTable::new(),
    }
}

fn upload(agent: u32, seq: u64) -> ControlMessage {
    ControlMessage::LogUpload { agent, seq, chunk: empty_chunk(agent) }
}

/// Polls `conn` until a message matching `pred` arrives (5 s budget).
fn wait_for(conn: &mut ControlConn, pred: impl Fn(&ControlMessage) -> bool) -> ControlMessage {
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        for ev in conn.poll_until(deadline).expect("poll") {
            if let ConnEvent::Msg(m) = ev {
                if pred(&m) {
                    return m;
                }
            }
        }
        assert!(std::time::Instant::now() < deadline, "expected control message never arrived");
    }
}

/// The pipelining claim itself: a whole window of uploads leaves the
/// agent back-to-back, with no ack in between, and the daemon merges
/// every sequence in order and answers with cumulative acks whose
/// frontier reaches the end of the window.
#[test]
fn full_window_pipelines_with_cumulative_acks() {
    let daemon = raw_daemon(DaemonConfig { upload_window: 8, ..DaemonConfig::default() }, 1);

    let mut conn = ControlConn::connect(daemon.addr()).expect("connect");
    conn.set_read_timeout(Duration::from_millis(10)).expect("timeout");
    conn.send(&ControlMessage::Register { agent: 0, incarnation: 0, resume: false })
        .expect("register");

    // The grant: the daemon advertises its configured window size.
    let ack = wait_for(&mut conn, |m| matches!(m, ControlMessage::RegisterAck { .. }));
    let ControlMessage::RegisterAck { agent: 0, next_seq: 0, window } = ack else {
        panic!("unexpected register ack: {ack:?}");
    };
    assert_eq!(window, 8, "the daemon must grant its configured window");

    // Six uploads, written in one burst before reading a single ack.
    for seq in 0..6u64 {
        conn.send(&upload(0, seq)).expect("pipelined upload");
    }
    wait_for(&mut conn, |m| matches!(m, ControlMessage::ChunkAck { next_seq: 6, .. }));

    conn.send(&ControlMessage::Goodbye { agent: 0, final_seq: 6 }).expect("goodbye");
    let (_log, metrics, order) =
        daemon.finish(SimTime::from_secs(60), 4, 1, Duration::from_millis(500));

    assert_eq!(metrics.agents[0].chunks_merged, 6);
    assert_eq!(metrics.agents[0].merged_ranges, vec![(0, 5)], "one contiguous merge range");
    assert_eq!(metrics.double_merge_violation(), None);
    assert_eq!(
        order,
        (0..6u64).map(|s| (0u32, s)).collect::<Vec<_>>(),
        "merge order is send order"
    );
    assert!(metrics.agents[0].window_peak >= 1, "occupancy gauge must have registered traffic");
}

/// Duplicates and holes inside a window: a re-sent merged sequence is
/// re-acknowledged at the unchanged frontier (never re-merged); a
/// sequence past the frontier is discarded and answered with a
/// `ChunkRetry` naming the frontier (go-back-N), and neither event
/// counts as a transport retry.
#[test]
fn duplicate_and_reordered_chunks_within_window() {
    let daemon = raw_daemon(DaemonConfig::default(), 1);

    let mut conn = ControlConn::connect(daemon.addr()).expect("connect");
    conn.set_read_timeout(Duration::from_millis(10)).expect("timeout");
    conn.send(&ControlMessage::Register { agent: 0, incarnation: 0, resume: false })
        .expect("register");
    wait_for(&mut conn, |m| matches!(m, ControlMessage::RegisterAck { next_seq: 0, .. }));

    // seq 0 merges; the frontier advances to 1.
    conn.send(&upload(0, 0)).expect("seq 0");
    wait_for(&mut conn, |m| matches!(m, ControlMessage::ChunkAck { next_seq: 1, .. }));

    // A duplicate of seq 0 is re-acked at the same frontier.
    conn.send(&upload(0, 0)).expect("dup seq 0");
    wait_for(&mut conn, |m| matches!(m, ControlMessage::ChunkAck { next_seq: 1, .. }));

    // seq 2 arrives before seq 1: the daemon discards it and asks for
    // the frontier back (go-back-N).
    conn.send(&upload(0, 2)).expect("hole");
    wait_for(&mut conn, |m| matches!(m, ControlMessage::ChunkRetry { seq: 1 }));

    // Filling the hole resumes the cumulative advance; seq 2 must be
    // re-sent because the daemon never buffered it.
    conn.send(&upload(0, 1)).expect("seq 1");
    wait_for(&mut conn, |m| matches!(m, ControlMessage::ChunkAck { next_seq: 2, .. }));
    conn.send(&upload(0, 2)).expect("seq 2 again");
    wait_for(&mut conn, |m| matches!(m, ControlMessage::ChunkAck { next_seq: 3, .. }));

    conn.send(&ControlMessage::Goodbye { agent: 0, final_seq: 3 }).expect("goodbye");
    let (_log, metrics, order) =
        daemon.finish(SimTime::from_secs(60), 4, 1, Duration::from_millis(500));

    assert_eq!(metrics.agents[0].merged_ranges, vec![(0, 2)]);
    assert_eq!(metrics.agents[0].duplicate_chunks, 1, "exactly the one scripted duplicate");
    assert_eq!(
        metrics.agents[0].chunk_retries, 0,
        "holes are window reordering, not transport damage"
    );
    assert_eq!(metrics.double_merge_violation(), None);
    assert_eq!(order, vec![(0, 0), (0, 1), (0, 2)], "merge order never admits the hole");
}

/// Reconnect mid-window: the connection dies with sequences acknowledged
/// cumulatively, the successor registers with `resume` and is told the
/// frontier, and a retransmit from before the frontier is re-acked but
/// never re-merged.
#[test]
fn reconnect_resumes_from_cumulative_frontier() {
    let daemon = raw_daemon(DaemonConfig::default(), 1);

    // First incarnation: two pipelined uploads, cumulatively acked.
    let mut conn = ControlConn::connect(daemon.addr()).expect("connect");
    conn.set_read_timeout(Duration::from_millis(10)).expect("timeout");
    conn.send(&ControlMessage::Register { agent: 0, incarnation: 0, resume: false })
        .expect("register");
    wait_for(&mut conn, |m| matches!(m, ControlMessage::RegisterAck { next_seq: 0, .. }));
    conn.send(&upload(0, 0)).expect("seq 0");
    conn.send(&upload(0, 1)).expect("seq 1");
    wait_for(&mut conn, |m| matches!(m, ControlMessage::ChunkAck { next_seq: 2, .. }));

    // The connection dies without a Goodbye — mid-window, as far as the
    // agent side knows.
    drop(conn);

    // The successor resumes and learns the frontier from its ack.
    let mut conn = ControlConn::connect(daemon.addr()).expect("reconnect");
    conn.set_read_timeout(Duration::from_millis(10)).expect("timeout");
    conn.send(&ControlMessage::Register { agent: 0, incarnation: 1, resume: true })
        .expect("re-register");
    wait_for(&mut conn, |m| matches!(m, ControlMessage::RegisterAck { next_seq: 2, .. }));

    // A cautious retransmit from before the frontier (the spool still
    // held it) is re-acked at the frontier, not re-merged.
    conn.send(&upload(0, 1)).expect("retransmit");
    wait_for(&mut conn, |m| matches!(m, ControlMessage::ChunkAck { next_seq: 2, .. }));

    // New traffic continues from the frontier.
    conn.send(&upload(0, 2)).expect("seq 2");
    conn.send(&upload(0, 3)).expect("seq 3");
    wait_for(&mut conn, |m| matches!(m, ControlMessage::ChunkAck { next_seq: 4, .. }));

    conn.send(&ControlMessage::Goodbye { agent: 0, final_seq: 4 }).expect("goodbye");
    let (_log, metrics, _order) =
        daemon.finish(SimTime::from_secs(60), 4, 1, Duration::from_millis(500));

    assert_eq!(metrics.agents[0].merged_ranges, vec![(0, 3)]);
    assert_eq!(metrics.agents[0].duplicate_chunks, 1, "the cross-reconnect retransmit");
    assert!(metrics.agents[0].resumes >= 1, "the re-registration must count as a resume");
    assert_eq!(metrics.double_merge_violation(), None);
}

/// The scale smoke: hundreds of concurrent windowed uploaders against
/// one daemon, every chunk merged exactly once and in a per-agent order
/// consistent with the sequence numbers.  Run by the CI smoke job with
/// `--ignored`; bump `AGENTS` locally to probe the 1,000-agent claim.
#[test]
#[ignore = "scale smoke; run explicitly (CI: cargo test --release -- --ignored)"]
fn swarm_256_windowed_agents_merge_exactly_once() {
    const AGENTS: u32 = 256;
    const CHUNKS: u64 = 20;
    const WINDOW: u64 = 16;

    let daemon = raw_daemon(
        DaemonConfig { upload_window: WINDOW as u32, ..DaemonConfig::default() },
        AGENTS,
    );
    let addr = daemon.addr();
    // Every agent registers before any uploads, so all of them hold a
    // connection at once.
    let start = std::sync::Arc::new(std::sync::Barrier::new(AGENTS as usize));

    let threads: Vec<_> = (0..AGENTS)
        .map(|agent| {
            let start = start.clone();
            std::thread::spawn(move || {
                let mut conn = ControlConn::connect(addr).expect("connect");
                conn.set_read_timeout(Duration::from_millis(5)).expect("timeout");
                conn.send(&ControlMessage::Register { agent, incarnation: 0, resume: false })
                    .expect("register");
                let ack = wait_for(&mut conn, |m| matches!(m, ControlMessage::RegisterAck { .. }));
                let ControlMessage::RegisterAck { next_seq: 0, window: granted, .. } = ack else {
                    panic!("unexpected register ack: {ack:?}");
                };
                let window = u64::from(granted).min(WINDOW);
                start.wait();

                // The windowed upload loop every agent runs: keep up to
                // `window` sequences in flight, advance on cumulative
                // acks, rewind on go-back-N retries.
                let mut next_send = 0u64;
                let mut next_ack = 0u64;
                let deadline = std::time::Instant::now() + Duration::from_secs(120);
                while next_ack < CHUNKS {
                    while next_send < CHUNKS && next_send - next_ack < window {
                        conn.send(&upload(agent, next_send)).expect("upload");
                        next_send += 1;
                    }
                    for ev in conn.poll().expect("poll") {
                        match ev {
                            ConnEvent::Msg(ControlMessage::ChunkAck { next_seq, .. }) => {
                                next_ack = next_ack.max(next_seq);
                            }
                            ConnEvent::Msg(ControlMessage::ChunkRetry { seq }) => {
                                next_send = next_send.min(seq);
                            }
                            _ => {}
                        }
                    }
                    assert!(
                        std::time::Instant::now() < deadline,
                        "agent {agent} stalled at ack frontier {next_ack}"
                    );
                }
                conn.send(&ControlMessage::Goodbye { agent, final_seq: CHUNKS }).expect("goodbye");
            })
        })
        .collect();
    for t in threads {
        t.join().expect("agent thread");
    }

    let (_log, metrics, order) =
        daemon.finish(SimTime::from_secs(60), 4, 1, Duration::from_secs(2));

    assert_eq!(metrics.double_merge_violation(), None);
    for (agent, m) in metrics.agents.iter().enumerate() {
        assert_eq!(m.chunks_merged, CHUNKS, "agent {agent} must merge every chunk");
        assert_eq!(
            m.merged_ranges,
            vec![(0, CHUNKS - 1)],
            "agent {agent} merges must be contiguous"
        );
    }
    assert_eq!(order.len(), (AGENTS as usize) * (CHUNKS as usize));
    // Per-agent merge order must follow the sequence numbers even though
    // the global interleaving is arbitrary.
    let mut next = vec![0u64; AGENTS as usize];
    for (agent, seq) in order {
        assert_eq!(seq, next[agent as usize], "agent {agent} merged out of order");
        next[agent as usize] += 1;
    }
    assert!(metrics.connections_peak >= u64::from(AGENTS), "every agent held a connection");
}
