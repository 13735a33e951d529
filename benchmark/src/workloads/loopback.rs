//! `live-loopback`: a full loopback deployment — manager daemon, eDonkey
//! server and two durable supervised agents (one no-content, one
//! random-content honeypot, the paper's two groups) — driven by two
//! scripted peers.  Each peer alternates a *hello session* (HELLO,
//! START-UPLOAD and a shared-list answer against the no-content host) and
//! a *part session* (the same plus one REQUEST-PARTS triple, 540 KB of
//! SENDING-PART, against the random-content host).  Closed loop: a peer
//! opens its next session when the previous one has returned.
//!
//! Every client is 127.0.0.1, so the merged log holds one distinct peer.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use edonkey_net::ScriptedPeer;
use edonkey_platform::{
    CheckpointOptions, DaemonConfig, LoopbackDeployment, LoopbackOptions, LoopbackSpec, Registry,
};
use edonkey_proto::codec::{encode_peer_message, FrameDecoder};
use edonkey_proto::parts::BLOCK_SIZE;
use edonkey_proto::{FileId, PeerMessage};
use honeypot::{AdvertisedFile, ContentStrategy, FileStrategy};
use netsim::SimTime;
use serde_json::json;

use super::upload::PROBE;
use super::{peak_rss_mb, Ctx, Layers, Rep, Workload};
use crate::stats::{percentile, supported_percentile};
use crate::trace::Tracer;

const CLIENTS: u32 = 2;
const NO_CONTENT: u32 = 0;
const RANDOM_CONTENT: u32 = 1;
const PART_BYTES: usize = 3 * BLOCK_SIZE as usize;
/// How long a peer waits for each answer before the session counts as failed.
const ANSWER_TIMEOUT: Duration = Duration::from_secs(5);

pub struct Loopback {
    ctx: Ctx,
    reps: u32,
    hello_ms: Vec<f64>,
    part_ms: Vec<f64>,
    /// Sessions with two REQUEST-PARTS triples (traced ladder only).
    two_triple_ms: Vec<f64>,
    login_ms: Vec<f64>,
}

impl Loopback {
    pub fn new(ctx: &Ctx) -> Self {
        Loopback {
            ctx: ctx.clone(),
            reps: 0,
            hello_ms: Vec::new(),
            part_ms: Vec::new(),
            two_triple_ms: Vec::new(),
            login_ms: Vec::new(),
        }
    }
}

fn advertised(agent: u32) -> AdvertisedFile {
    AdvertisedFile::new(
        FileId::from_seed(format!("bench-loopback-{agent}").as_bytes()),
        format!("bench loopback file {agent}.avi"),
        700 << 20,
    )
}

/// What one scripted peer brings back.
#[derive(Default)]
struct ClientReport {
    login_ms: f64,
    hello_ms: Vec<f64>,
    part_ms: Vec<f64>,
    two_triple_ms: Vec<f64>,
    sessions: u64,
    bytes_received: usize,
    failures: Vec<String>,
}

/// One session of `triples` REQUEST-PARTS against `addr`; returns its
/// latency, or what went wrong.
fn session(
    peer: &mut ScriptedPeer,
    addr: SocketAddr,
    agent: u32,
    triples: u32,
    report: &mut ClientReport,
) -> Option<f64> {
    let file = advertised(agent).id;
    let shared = [(file, "a file this peer shares.mp3", 5u64 << 20)];
    let started = Instant::now();
    let outcome = peer.attempt_download(addr, file, triples, ANSWER_TIMEOUT, &shared);
    let ms = started.elapsed().as_secs_f64() * 1e3;
    report.sessions += 1;
    let problem = match outcome {
        Err(e) => Some(format!("{e}")),
        Ok(a) if !a.hello_answered || !a.upload_accepted => Some("handshake unanswered".into()),
        Ok(a) if !a.was_asked_shared_files => Some("never asked for the shared list".into()),
        Ok(a)
            if a.answered_requests != triples
                || a.bytes_received != triples as usize * PART_BYTES =>
        {
            Some(format!(
                "{} of {triples} triples answered, {} bytes",
                a.answered_requests, a.bytes_received
            ))
        }
        Ok(a) => {
            report.bytes_received += a.bytes_received;
            None
        }
    };
    match problem {
        Some(p) => {
            report.failures.push(format!("{triples}-triple session against agent {agent}: {p}"));
            None
        }
        None => Some(ms),
    }
}

impl Workload for Loopback {
    /// A deployment's wall time is quantised by the server's 200 ms
    /// teardown and swings with how many sessions miss the delayed-ACK
    /// stall; one warm-up read 2.45–4.28 s over twenty runs.
    fn warm_ups(&self) -> usize {
        3
    }

    fn rep(&mut self, tr: &mut Tracer) -> Rep {
        let sizes = self.ctx.sizes();
        let mut rep = Rep::default();
        let dir = self.ctx.dir.join(format!("loopback-{}", self.reps));
        let rep_no = self.reps;
        self.reps += 1;

        let specs = vec![
            LoopbackSpec::fixed(
                ContentStrategy::NoContent,
                FileStrategy::Fixed(vec![advertised(NO_CONTENT)]),
            ),
            LoopbackSpec::fixed(
                ContentStrategy::RandomContent,
                FileStrategy::Fixed(vec![advertised(RANDOM_CONTENT)]),
            ),
        ];
        let opts = LoopbackOptions {
            daemon: DaemonConfig {
                // Generous, so a descheduled agent thread on a busy box is
                // not declared dead and relaunched mid-measurement.
                heartbeat_timeout_ms: 5_000,
                checkpoint: Some(CheckpointOptions::new(dir.join("ckpt"))),
                ..DaemonConfig::default()
            },
            seed: self.ctx.seed,
            spool_dir: Some(dir.join("spool")),
            ..LoopbackOptions::default()
        };

        let started = Instant::now();
        let deployment = match LoopbackDeployment::start(specs, opts) {
            Ok(d) if d.wait_ready(Duration::from_secs(10)) => d,
            Ok(d) => {
                // Shut the half-started platform down before reporting.
                d.finish(SimTime::from_secs(60), 1, 1, Duration::from_secs(1));
                rep.attempted = 1;
                rep.fail("agents never became ready");
                return rep;
            }
            Err(e) => {
                rep.attempted = 1;
                rep.fail(format!("LoopbackDeployment::start: {e}"));
                return rep;
            }
        };
        let server = deployment.server_addr();
        let hosts: Vec<SocketAddr> = [NO_CONTENT, RANDOM_CONTENT]
            .iter()
            .filter_map(|&a| deployment.daemon().agent_peer_addr(a))
            .collect();
        let ladder = if tr.on() { sizes.ladder_sessions } else { 0 };
        let seed = self.ctx.seed;

        let hot_started = Instant::now();
        let reports: Vec<ClientReport> = std::thread::scope(|s| {
            let hosts = &hosts;
            let handles: Vec<_> = (0..CLIENTS)
                .map(|client| {
                    s.spawn(move || {
                        let mut report = ClientReport::default();
                        let name = format!("bench-peer-{seed:x}-{rep_no}-{client}");
                        let login_started = Instant::now();
                        let mut peer = match ScriptedPeer::login(server, &name) {
                            Ok(p) => p,
                            Err(e) => {
                                report.failures.push(format!("login: {e}"));
                                return report;
                            }
                        };
                        report.login_ms = login_started.elapsed().as_secs_f64() * 1e3;
                        for _ in 0..sizes.loopback_pairs {
                            if let Some(ms) =
                                session(&mut peer, hosts[0], NO_CONTENT, 0, &mut report)
                            {
                                report.hello_ms.push(ms);
                            }
                            if let Some(ms) =
                                session(&mut peer, hosts[1], RANDOM_CONTENT, 1, &mut report)
                            {
                                report.part_ms.push(ms);
                            }
                        }
                        for _ in 0..ladder {
                            if let Some(ms) =
                                session(&mut peer, hosts[1], RANDOM_CONTENT, 2, &mut report)
                            {
                                report.two_triple_ms.push(ms);
                            }
                        }
                        report
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("scripted peer panicked")).collect()
        });
        rep.hot_s = hot_started.elapsed().as_secs_f64();

        let outcome = tr.span("platform.deploy_finish", |_| {
            deployment.finish(SimTime::from_secs(60), 1, 1, Duration::from_secs(5))
        });
        rep.pipeline_s = started.elapsed().as_secs_f64();
        rep.rss_mb = peak_rss_mb();

        let sessions: u64 = reports.iter().map(|r| r.sessions).sum();
        rep.work_units = sessions as f64;
        rep.attempted = sessions.max(1);
        for r in &reports {
            rep.failures.extend(r.failures.iter().cloned());
        }
        rep.failed = rep.failures.len() as u64;
        // Two records per hello session, three per part session, four per
        // two-triple session; anything wrong with the merged whole fails
        // every session of the repetition.
        let hello: usize = reports.iter().map(|r| r.hello_ms.len()).sum();
        let part: usize = reports.iter().map(|r| r.part_ms.len()).sum();
        let two: usize = reports.iter().map(|r| r.two_triple_ms.len()).sum();
        let expected = 2 * hello + 3 * part + 4 * two;
        let mut whole = Vec::new();
        if rep.failed == 0 && outcome.log.records.len() != expected {
            whole
                .push(format!("{} records merged, {expected} expected", outcome.log.records.len()));
        }
        if let Some(diff) = outcome.replay_divergence() {
            whole.push(format!("journal replay diverges: {diff}"));
        }
        if let Some(v) = outcome.metrics.double_merge_violation() {
            whole.push(format!("double merge: {v}"));
        }
        if !whole.is_empty() {
            rep.failed = rep.attempted;
            rep.failures.extend(whole);
        }

        for r in &reports {
            self.hello_ms.extend(&r.hello_ms);
            self.part_ms.extend(&r.part_ms);
            self.two_triple_ms.extend(&r.two_triple_ms);
            self.login_ms.push(r.login_ms);
        }
        rep.facts = json!({
            "records": outcome.log.records.len(),
            "sessions": sessions,
            "distinct_peers": outcome.log.distinct_peers,
            "agent_chunks": outcome.metrics.total_chunks_merged(),
        });
        if tr.on() {
            let mut l = Layers::new();
            l.insert("platform.deploy_finish_s".into(), tr.total_s("platform.deploy_finish"));
            l.insert("platform.agent_chunks".into(), outcome.metrics.total_chunks_merged() as f64);
            l.insert("platform.chunk_retries".into(), outcome.metrics.total_chunk_retries() as f64);
            l.insert(
                "platform.duplicate_chunks".into(),
                outcome.metrics.total_duplicate_chunks() as f64,
            );
            l.insert("core.records".into(), outcome.log.records.len() as f64);
            l.insert("core.shared_lists".into(), outcome.log.shared_lists.len() as f64);
            l.insert("core.distinct_peers".into(), f64::from(outcome.log.distinct_peers));
            l.insert(
                "core.records_per_session".into(),
                outcome.log.records.len() as f64 / sessions.max(1) as f64,
            );
            let part_bytes: usize = reports.iter().map(|r| r.bytes_received).sum();
            l.insert(
                "net.bytes_per_part_session".into(),
                part_bytes as f64 / (part + 2 * two).max(1) as f64,
            );
            rep.layers = l;
        }
        let _ = std::fs::remove_dir_all(&dir);
        rep
    }

    fn pooled_layers(&mut self, layers: &mut Layers) {
        layers.insert("hello_session_ms_p50".into(), percentile(&self.hello_ms, 50.0));
        layers.insert("hello_session_ms_p90".into(), supported_percentile(&self.hello_ms, 90.0));
        layers.insert("part_session_ms_p50".into(), percentile(&self.part_ms, 50.0));
        layers.insert("part_session_ms_p90".into(), supported_percentile(&self.part_ms, 90.0));
        layers.insert("net.login_ms_p50".into(), percentile(&self.login_ms, 50.0));
        // The ladder: what one more REQUEST-PARTS triple adds to a session.
        layers.insert(
            "net.part_triple_ms_p50".into(),
            percentile(&self.two_triple_ms, 50.0) - percentile(&self.part_ms, 50.0),
        );
        // The agents' own instruments, pooled over the process's lifetime.
        let registry = Registry::global();
        layers.insert(
            "platform.agent_chunk_rtt_us_p50".into(),
            registry.histogram("chunk_rtt_micros").snapshot().p50() as f64,
        );
        layers.insert(
            "platform.agent_spool_append_us_p50".into(),
            registry.histogram("spool_append_micros").snapshot().p50() as f64,
        );
        layers.insert("proto.peer_codec_mb_per_s".into(), peer_codec_mb_per_s());
    }
}

/// Encode plus `FrameDecoder` of one SENDING-PART block (180 KB), the
/// message a part session moves three of, in MB of frame per second.
fn peer_codec_mb_per_s() -> f64 {
    let block = BLOCK_SIZE as u32;
    let msg = PeerMessage::SendingPart {
        file_id: FileId::from_seed(b"bench-part"),
        start: 0,
        end: block,
        data: vec![0xA5; block as usize],
    };
    let started = Instant::now();
    let mut bytes = 0usize;
    let mut decoder = FrameDecoder::new();
    while started.elapsed() < PROBE {
        let frame = encode_peer_message(std::hint::black_box(&msg));
        bytes += frame.len();
        decoder.feed(&frame);
        let raw = decoder.next_frame().expect("own frame").expect("complete frame");
        let decoded = PeerMessage::decode_payload(raw.opcode, &raw.payload).expect("own payload");
        std::hint::black_box(decoded);
    }
    bytes as f64 / 1e6 / started.elapsed().as_secs_f64()
}
