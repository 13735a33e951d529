//! `live-upload`: a real manager daemon (chunk WAL and checkpoint on) fed
//! by two protocol-speaking clients that follow the agent's upload
//! discipline — spool-append before send, the granted window in flight,
//! cumulative acks trimming the spool, go-back-N on `ChunkRetry`, a
//! heartbeat every 16 chunks.  Closed loop: a client sends its next chunk
//! only when the window has room.

use std::collections::VecDeque;
use std::net::SocketAddr;
use std::path::Path;
use std::time::{Duration, Instant};

use edonkey_platform::{
    measurement_diff, AgentConfig, CheckpointOptions, ConnEvent, ControlConn, ControlMessage,
    Daemon, DaemonConfig, PlatformMetrics, Spool,
};
use edonkey_proto::Ipv4;
use honeypot::{ContentStrategy, FileStrategy, HoneypotId, HoneypotSpec, Manager, ServerInfo};
use netsim::SimTime;
use serde_json::json;

use super::{dir_bytes, peak_rss_mb, Ctx, Layers, Rep, Workload};
use crate::chunks::ChunkSynth;
use crate::stats::{percentile, supported_percentile};
use crate::trace::Tracer;

const AGENTS: u32 = 2;
const RECORDS_PER_CHUNK: usize = 2_000;
const HEARTBEAT_EVERY_CHUNKS: u64 = 16;
/// A client that sees no ack for this long gives up; the repetition then
/// fails its remaining chunks instead of hanging the run.
const STALL_LIMIT: Duration = Duration::from_secs(30);
/// Finalisation parameters handed to both the daemon and the replay.
const MEASURED: SimTime = SimTime(netsim::time::MS_PER_DAY);
const NAME_THRESHOLD: u32 = 1;

pub struct Upload {
    ctx: Ctx,
    reps: u32,
    chunk_ack_ms: Vec<f64>,
    heartbeat_rtt_ms: Vec<f64>,
}

impl Upload {
    pub fn new(ctx: &Ctx) -> Self {
        Upload { ctx: ctx.clone(), reps: 0, chunk_ack_ms: Vec::new(), heartbeat_rtt_ms: Vec::new() }
    }
}

/// What one uploading client brings back.
struct ClientReport {
    first_send: Instant,
    last_ack: Instant,
    acked: u64,
    chunk_ack_ms: Vec<f64>,
    heartbeat_rtt_ms: Vec<f64>,
    tracer: Tracer,
    error: Option<String>,
}

fn run_client(
    addr: SocketAddr,
    synth: &ChunkSynth,
    agent: u32,
    chunks: u64,
    spool_dir: &Path,
    traced: bool,
) -> ClientReport {
    let mut tr = Tracer::new(traced);
    let started = Instant::now();
    let mut report = ClientReport {
        first_send: started,
        last_ack: started,
        acked: 0,
        chunk_ack_ms: Vec::with_capacity(chunks as usize),
        heartbeat_rtt_ms: Vec::new(),
        tracer: Tracer::new(false),
        error: None,
    };
    let result = (|| -> Result<(), String> {
        let mut spool = Spool::open(spool_dir).map_err(|e| format!("spool open: {e}"))?;
        let mut conn = ControlConn::connect(addr).map_err(|e| format!("connect: {e}"))?;
        conn.set_read_timeout(Duration::from_millis(1)).map_err(|e| e.to_string())?;
        conn.send(&ControlMessage::Register { agent, incarnation: 0, resume: false })
            .map_err(|e| format!("register: {e}"))?;
        let mut granted = 0u64;
        let handshake_deadline = Instant::now() + STALL_LIMIT;
        while granted == 0 {
            if Instant::now() > handshake_deadline {
                return Err("no RegisterAck".into());
            }
            for ev in conn.poll().map_err(|e| format!("handshake: {e}"))? {
                if let ConnEvent::Msg(ControlMessage::RegisterAck { window, .. }) = ev {
                    granted = u64::from(window.max(1));
                }
            }
        }

        // In-flight frames past the ack frontier, oldest first, each with
        // the instant of its first send (the ack-latency clock).
        let mut window: VecDeque<(Vec<u8>, Instant)> = VecDeque::new();
        let mut next_send = 0u64;
        let mut next_ack = 0u64;
        let mut hb_seq = 0u64;
        let mut last_rtt_micros = 0u64;
        let mut last_progress = Instant::now();
        report.first_send = Instant::now();
        while next_ack < chunks {
            while next_send < chunks && next_send - next_ack < granted {
                let in_window = (next_send - next_ack) as usize;
                if in_window == window.len() {
                    // A fresh chunk: durable in the spool before its first send.
                    let msg = ControlMessage::LogUpload {
                        agent,
                        seq: next_send,
                        chunk: synth.chunk(next_send),
                    };
                    let payload = tr.busy("platform.frame_encode", || msg.encode_payload());
                    tr.busy("platform.spool_append", || spool.append(next_send, &payload))
                        .map_err(|e| format!("spool append: {e}"))?;
                    let frame = tr.busy("platform.frame_encode", || msg.encode_frame());
                    window.push_back((frame, Instant::now()));
                }
                let frame = &window[in_window].0;
                tr.busy("platform.conn_send", || conn.send_raw(frame))
                    .map_err(|e| format!("send: {e}"))?;
                next_send += 1;
                if next_send.is_multiple_of(HEARTBEAT_EVERY_CHUNKS) {
                    hb_seq += 1;
                    conn.send(&ControlMessage::Heartbeat {
                        agent,
                        seq: hb_seq,
                        sent_micros: started.elapsed().as_micros() as u64,
                        rtt_micros: last_rtt_micros,
                        flags: 0,
                    })
                    .map_err(|e| format!("heartbeat: {e}"))?;
                }
            }
            let events =
                tr.busy("platform.conn_poll", || conn.poll()).map_err(|e| format!("poll: {e}"))?;
            for ev in events {
                match ev {
                    ConnEvent::Msg(ControlMessage::ChunkAck { next_seq, window: grant }) => {
                        granted = u64::from(grant.max(1));
                        let now = Instant::now();
                        while next_ack < next_seq.min(chunks) {
                            if let Some((_, sent_at)) = window.pop_front() {
                                report
                                    .chunk_ack_ms
                                    .push(now.duration_since(sent_at).as_secs_f64() * 1e3);
                            }
                            next_ack += 1;
                            report.last_ack = now;
                            last_progress = now;
                        }
                        next_send = next_send.max(next_ack);
                        if next_ack > 0 {
                            tr.busy("platform.spool_trim", || spool.trim_acked(next_ack - 1))
                                .map_err(|e| format!("spool trim: {e}"))?;
                        }
                    }
                    ConnEvent::Msg(ControlMessage::ChunkRetry { seq }) => {
                        next_send = next_send.min(seq.max(next_ack));
                    }
                    ConnEvent::Msg(ControlMessage::HeartbeatAck { echo_micros, .. }) => {
                        let now = started.elapsed().as_micros() as u64;
                        last_rtt_micros = now.saturating_sub(echo_micros).max(1);
                        report.heartbeat_rtt_ms.push(last_rtt_micros as f64 / 1e3);
                    }
                    _ => {}
                }
            }
            report.acked = next_ack;
            if last_progress.elapsed() > STALL_LIMIT {
                return Err(format!("no ack for {STALL_LIMIT:?} at chunk {next_ack}"));
            }
        }
        conn.send(&ControlMessage::Goodbye { agent, final_seq: chunks })
            .map_err(|e| format!("goodbye: {e}"))
    })();
    report.error = result.err();
    report.tracer = tr;
    report
}

/// Feeds the regenerated chunks to a fresh in-process manager in the
/// daemon's merge order and finalises with the daemon's parameters.
fn replay(
    order: &[(u32, u64)],
    synths: &[ChunkSynth],
    specs: Vec<HoneypotSpec>,
) -> Result<honeypot::MeasurementLog, String> {
    let mut mgr = Manager::new(specs);
    for &(agent, seq) in order {
        let synth = synths.get(agent as usize).ok_or(format!("merged unknown agent {agent}"))?;
        if !mgr.collect_sequenced(seq, synth.chunk(seq)) {
            return Err(format!("merge order repeats ({agent}, {seq})"));
        }
    }
    Ok(mgr.finalize(MEASURED, 0, NAME_THRESHOLD))
}

impl Workload for Upload {
    fn rep(&mut self, tr: &mut Tracer) -> Rep {
        let sizes = self.ctx.sizes();
        let chunks = sizes.upload_chunks;
        let total_chunks = chunks * u64::from(AGENTS);
        let mut rep = Rep { attempted: total_chunks, ..Rep::default() };
        let dir = self.ctx.dir.join(format!("upload-{}", self.reps));
        self.reps += 1;

        let server = ServerInfo::new("bench-server", Ipv4::new(127, 0, 0, 1), 4661);
        let configs: Vec<AgentConfig> = (0..AGENTS)
            .map(|i| AgentConfig {
                id: HoneypotId(i),
                content: ContentStrategy::NoContent,
                files: FileStrategy::Fixed(Vec::new()),
                server: server.clone(),
                ip_salt: 1,
                rng_seed: 1,
                heartbeat_ms: 1_000,
                collect_ms: 1_000,
                client_name: format!("bench-{i}"),
            })
            .collect();
        let specs: Vec<HoneypotSpec> = configs
            .iter()
            .map(|c| HoneypotSpec { id: c.id, content: c.content, server: c.server.clone() })
            .collect();
        let synths: Vec<ChunkSynth> =
            (0..AGENTS).map(|a| ChunkSynth::new(self.ctx.seed, a, RECORDS_PER_CHUNK)).collect();

        let started = Instant::now();
        let daemon_config = DaemonConfig {
            // The clients heartbeat by chunk count, not by the clock; a
            // descheduled client must not be declared dead mid-upload.
            heartbeat_timeout_ms: 60_000,
            checkpoint: Some(CheckpointOptions::new(dir.join("ckpt"))),
            ..DaemonConfig::default()
        };
        // The clients below are the agents; the supervisor has nothing to launch.
        let daemon = match Daemon::start(daemon_config, configs, Box::new(|_, _, _| {})) {
            Ok(d) => d,
            Err(e) => {
                rep.failed = total_chunks;
                rep.failures.push(format!("Daemon::start: {e}"));
                return rep;
            }
        };
        let addr = daemon.addr();
        let traced = tr.on();
        let reports: Vec<ClientReport> = std::thread::scope(|s| {
            let handles: Vec<_> = synths
                .iter()
                .enumerate()
                .map(|(agent, synth)| {
                    let spool_dir = dir.join(format!("spool-{agent}"));
                    s.spawn(move || {
                        run_client(addr, synth, agent as u32, chunks, &spool_dir, traced)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("upload client panicked")).collect()
        });
        let (log, metrics, order) = tr.span("platform.daemon_finish", |_| {
            daemon.finish(MEASURED, 0, NAME_THRESHOLD, Duration::from_secs(2))
        });
        rep.pipeline_s = started.elapsed().as_secs_f64();
        rep.rss_mb = peak_rss_mb();
        let wal_bytes = dir_bytes(&dir.join("ckpt"));

        let first_send = reports.iter().map(|r| r.first_send).min().expect("two clients");
        let last_ack = reports.iter().map(|r| r.last_ack).max().expect("two clients");
        rep.hot_s = last_ack.duration_since(first_send).as_secs_f64();
        rep.work_units = log.records.len() as f64;

        // A chunk fails when it was never acknowledged; anything wrong
        // with the merged whole fails every chunk of the repetition.
        let acked: u64 = reports.iter().map(|r| r.acked).sum();
        for r in reports.iter().filter_map(|r| r.error.as_ref()) {
            rep.failures.push(format!("client: {r}"));
        }
        let mut whole = Vec::new();
        let sent_records = total_chunks as usize * RECORDS_PER_CHUNK;
        if log.records.len() != sent_records {
            whole.push(format!("{} records merged, {sent_records} sent", log.records.len()));
        }
        if let Some(v) = metrics.double_merge_violation() {
            whole.push(format!("double merge: {v}"));
        }
        let replay_started = Instant::now();
        match replay(&order, &synths, specs) {
            Ok(replayed) => {
                if let Some(diff) = measurement_diff(&log, &replayed) {
                    whole.push(format!("journal-free replay diverges: {diff}"));
                }
            }
            Err(e) => whole.push(format!("replay: {e}")),
        }
        let replay_s = replay_started.elapsed().as_secs_f64();
        if whole.is_empty() {
            rep.failed = total_chunks - acked;
        } else {
            rep.failed = total_chunks;
            rep.failures.extend(whole);
        }

        for r in &reports {
            self.chunk_ack_ms.extend(&r.chunk_ack_ms);
            self.heartbeat_rtt_ms.extend(&r.heartbeat_rtt_ms);
            tr.absorb_busy(&r.tracer);
        }
        rep.facts = json!({
            "records": log.records.len(),
            "shared_lists": log.shared_lists.len(),
            "distinct_peers": log.distinct_peers,
            "chunks": total_chunks,
        });
        if traced {
            rep.layers = layers(tr, &metrics, wal_bytes, log.records.len() as f64 / replay_s);
            rep.layers.insert("core.records".into(), log.records.len() as f64);
            rep.layers.insert("core.shared_lists".into(), log.shared_lists.len() as f64);
            rep.layers.insert("core.distinct_peers".into(), f64::from(log.distinct_peers));
        }
        drop(log);
        let _ = std::fs::remove_dir_all(&dir);
        rep
    }

    fn pooled_layers(&mut self, layers: &mut Layers) {
        layers.insert("chunk_ack_ms_p50".into(), percentile(&self.chunk_ack_ms, 50.0));
        layers.insert("chunk_ack_ms_p90".into(), supported_percentile(&self.chunk_ack_ms, 90.0));
        layers.insert(
            "platform.chunk_ack_ms_p99".into(),
            supported_percentile(&self.chunk_ack_ms, 99.0),
        );
        layers.insert(
            "platform.heartbeat_rtt_ms_p50".into(),
            percentile(&self.heartbeat_rtt_ms, 50.0),
        );
        let synth = ChunkSynth::new(self.ctx.seed, 0, RECORDS_PER_CHUNK);
        layers.insert("proto.control_codec_mb_per_s".into(), control_codec_mb_per_s(&synth));
    }
}

fn layers(tr: &Tracer, m: &PlatformMetrics, wal_bytes: u64, replay_records_per_s: f64) -> Layers {
    let mut l = Layers::new();
    for name in [
        "platform.frame_encode",
        "platform.spool_append",
        "platform.spool_trim",
        "platform.conn_send",
        "platform.conn_poll",
        "platform.daemon_finish",
    ] {
        l.insert(format!("{name}_s"), tr.total_s(name));
    }
    l.insert("platform.wal_bytes".into(), wal_bytes as f64);
    l.insert("platform.chunk_retries".into(), m.total_chunk_retries() as f64);
    l.insert("platform.duplicate_chunks".into(), m.total_duplicate_chunks() as f64);
    l.insert("platform.window_shrinks".into(), m.window_shrinks as f64);
    l.insert("platform.chunks_shed".into(), m.chunks_shed as f64);
    l.insert("platform.merge_queue_peak".into(), m.merge_queue_peak as f64);
    l.insert("platform.frontier_lag_peak".into(), m.max_frontier_lag() as f64);
    l.insert("platform.merge_dwell_us_p50".into(), m.merge_dwell_micros.p50() as f64);
    l.insert("platform.reactor_loop_us_p50".into(), m.reactor_loop_hist.p50() as f64);
    l.insert("core.manager_replay_records_per_s".into(), replay_records_per_s);
    l
}

/// How long each codec side probe loops.
pub const PROBE: Duration = Duration::from_millis(100);

/// Encode plus `ControlMessage::decode` of one of the workload's own
/// `LogUpload` messages, in MB of payload per second.
fn control_codec_mb_per_s(synth: &ChunkSynth) -> f64 {
    let msg = ControlMessage::LogUpload { agent: 0, seq: 7, chunk: synth.chunk(7) };
    let opcode = msg.opcode();
    let started = Instant::now();
    let mut bytes = 0usize;
    while started.elapsed() < PROBE {
        let payload = std::hint::black_box(&msg).encode_payload();
        bytes += payload.len();
        let decoded = ControlMessage::decode(opcode, &payload).expect("own payload decodes");
        std::hint::black_box(decoded);
    }
    bytes as f64 / 1e6 / started.elapsed().as_secs_f64()
}
