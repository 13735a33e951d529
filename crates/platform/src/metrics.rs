//! Platform health metrics.
//!
//! The paper's platform ran for months; what made that survivable was
//! knowing *how* the collection layer was doing — which honeypots died,
//! how often, how much data moved.  The daemon aggregates those numbers
//! here and serialises them to JSON for the experiment runner.  The JSON
//! is written by hand (like the bench reports) so the output is identical
//! under every build of the workspace.
//!
//! Latency distributions are log-linear [`Histogram`]s; each JSON object
//! keeps the integer `count`/`min`/`mean`/`max` keys BENCH parsers read
//! and adds `p50`/`p90`/`p99`.  Merge-queue dwell and ack-frontier lag get
//! distribution objects of their own.

use crate::obs::Histogram;

/// Per-agent control-plane counters.
#[derive(Clone, Debug, Default)]
pub struct AgentMetrics {
    /// Heartbeats received by the daemon.
    pub heartbeats: u64,
    /// RTTs (µs) the agent measured and piggybacked on later heartbeats.
    pub rtt: Histogram,
    /// Relaunches issued (initial launch not counted).
    pub relaunches: u64,
    /// Times the supervision loop declared the agent dead.
    pub deaths: u64,
    /// Log chunks merged into the measurement.
    pub chunks_merged: u64,
    /// Encoded payload bytes of merged chunks.
    pub chunk_bytes: u64,
    /// Corrupt uploads re-requested via `ChunkRetry`.
    pub chunk_retries: u64,
    /// Uploads re-acked without merging (sequence already collected — a
    /// lost ack, a replayed spool record, or a resend across a manager
    /// restart).
    pub duplicate_chunks: u64,
    /// Registrations with `resume = true` (reconnects and relaunches that
    /// continued an upload stream).
    pub resumes: u64,
    /// Total registrations (incarnations × reconnects).
    pub registrations: u64,
    /// Milliseconds spent registered, accumulated across incarnations.
    pub uptime_ms: u64,
    /// Peak upload-window occupancy: most chunks observed in flight past
    /// the cumulative-ack frontier at once.
    pub window_peak: u64,
    /// Peak cumulative-ack frontier lag: highest enqueued sequence + 1
    /// minus the merge frontier, sampled when acks are issued.
    pub frontier_lag_peak: u64,
    /// Heartbeats that arrived with the spool-degraded flag set (the
    /// agent is uploading from memory because its disk is failing).
    pub degraded_heartbeats: u64,
    /// Inclusive, disjoint, sorted ranges of merged upload sequences.
    /// This is the exactly-once ledger: [`AgentMetrics::note_merged`]
    /// refuses a sequence already covered, so `chunks_merged` equal to
    /// [`AgentMetrics::merged_seq_count`] proves no chunk was merged
    /// twice — including across a manager checkpoint/restore boundary.
    pub merged_ranges: Vec<(u64, u64)>,
}

impl AgentMetrics {
    /// Records `seq` as merged.  Returns `false` (and changes nothing) if
    /// the sequence was already covered — a double merge.
    pub fn note_merged(&mut self, seq: u64) -> bool {
        let pos = self.merged_ranges.partition_point(|&(lo, _)| lo <= seq);
        if pos > 0 {
            if seq <= self.merged_ranges[pos - 1].1 {
                return false;
            }
            if seq == self.merged_ranges[pos - 1].1 + 1 {
                self.merged_ranges[pos - 1].1 = seq;
                if pos < self.merged_ranges.len() && self.merged_ranges[pos].0 == seq + 1 {
                    let (_, hi) = self.merged_ranges.remove(pos);
                    self.merged_ranges[pos - 1].1 = hi;
                }
                return true;
            }
        }
        if pos < self.merged_ranges.len() && self.merged_ranges[pos].0 == seq + 1 {
            self.merged_ranges[pos].0 = seq;
            return true;
        }
        self.merged_ranges.insert(pos, (seq, seq));
        true
    }

    /// Distinct sequences covered by [`AgentMetrics::merged_ranges`].
    pub fn merged_seq_count(&self) -> u64 {
        self.merged_ranges.iter().map(|&(lo, hi)| hi - lo + 1).sum()
    }
}

/// Whole-platform metrics: one [`AgentMetrics`] per agent plus global
/// counters.
#[derive(Clone, Debug, Default)]
pub struct PlatformMetrics {
    pub agents: Vec<AgentMetrics>,
    /// Control frames that failed their CRC, over all connections.
    pub corrupt_frames: u64,
    /// Times a daemon recovered state from a checkpoint directory.
    pub manager_restores: u64,
    /// Reactor-shard loop iteration latency in µs (active passes only);
    /// per-shard batches fold in via [`Histogram::merge`].
    pub reactor_loop_hist: Histogram,
    /// Merge-queue dwell: microseconds a chunk waited between the
    /// reactor enqueueing it and the merge thread picking it up.
    pub merge_dwell_micros: Histogram,
    /// Cumulative-ack frontier lag in chunks, sampled at each ack (the
    /// scalar `frontier_lag_peak` per agent keeps the worst case).
    pub frontier_lag_chunks: Histogram,
    /// Peak pending-merge queue depth (chunks queued, not yet merged).
    pub merge_queue_peak: u64,
    /// Connections dropped at accept because the cap was reached.
    pub connections_rejected: u64,
    /// Peak concurrent control connections.
    pub connections_peak: u64,
    /// Connections reaped because no `Register` arrived in time.
    pub handshake_timeouts: u64,
    /// Registered connections reaped for silence past the idle limit.
    pub idle_reaped: u64,
    /// Connections reaped for dangling a partial frame past the
    /// slow-loris read budget.
    pub slow_loris_reaped: u64,
    /// Connections dropped for fatal framing violations (bad magic or
    /// version, oversized frame).
    pub protocol_violations: u64,
    /// Accept-loop failures classified as resource exhaustion (the loop
    /// backed off instead of spinning).
    pub accept_resource_errors: u64,
    /// Chunks dropped unqueued because the merge queue was at its limit
    /// (the agent re-sends them under backoff).
    pub chunks_shed: u64,
    /// Acks issued with a window smaller than the registration grant
    /// (merge-queue backpressure in action).
    pub window_shrinks: u64,
    /// WAL appends that failed: the chunk was neither merged nor acked
    /// (the acked ⇒ durable contract held by refusing the ack).
    pub wal_append_failures: u64,
    /// Checkpoint snapshot writes that failed; the stale on-disk snapshot
    /// is quarantined and the daemon keeps serving from the chunk WAL.
    pub checkpoint_failures: u64,
    /// WAL records that passed their CRC at recovery but did not decode as
    /// a log upload; recovery skipped them and kept replaying.
    pub wal_undecodable_records: u64,
}

impl PlatformMetrics {
    pub fn new(agents: usize) -> Self {
        PlatformMetrics { agents: vec![AgentMetrics::default(); agents], ..Default::default() }
    }

    pub fn total_relaunches(&self) -> u64 {
        self.agents.iter().map(|a| a.relaunches).sum()
    }

    pub fn total_chunk_retries(&self) -> u64 {
        self.agents.iter().map(|a| a.chunk_retries).sum()
    }

    pub fn total_chunks_merged(&self) -> u64 {
        self.agents.iter().map(|a| a.chunks_merged).sum()
    }

    pub fn total_chunk_bytes(&self) -> u64 {
        self.agents.iter().map(|a| a.chunk_bytes).sum()
    }

    pub fn total_heartbeats(&self) -> u64 {
        self.agents.iter().map(|a| a.heartbeats).sum()
    }

    pub fn total_resumes(&self) -> u64 {
        self.agents.iter().map(|a| a.resumes).sum()
    }

    pub fn total_duplicate_chunks(&self) -> u64 {
        self.agents.iter().map(|a| a.duplicate_chunks).sum()
    }

    pub fn total_degraded_heartbeats(&self) -> u64 {
        self.agents.iter().map(|a| a.degraded_heartbeats).sum()
    }

    /// Largest upload window any agent filled.
    pub fn max_window_peak(&self) -> u64 {
        self.agents.iter().map(|a| a.window_peak).max().unwrap_or(0)
    }

    /// Largest cumulative-ack frontier lag observed on any agent.
    pub fn max_frontier_lag(&self) -> u64 {
        self.agents.iter().map(|a| a.frontier_lag_peak).max().unwrap_or(0)
    }

    /// Exactly-once check over every agent: each merged-sequence ledger
    /// must cover exactly `chunks_merged` distinct sequences.  Returns the
    /// first violation found (an agent whose counts disagree), `None` when
    /// the whole platform merged every chunk at most once.
    pub fn double_merge_violation(&self) -> Option<String> {
        for (i, a) in self.agents.iter().enumerate() {
            if a.merged_seq_count() != a.chunks_merged {
                return Some(format!(
                    "agent {i}: {} chunks merged but {} distinct sequences covered ({:?})",
                    a.chunks_merged,
                    a.merged_seq_count(),
                    a.merged_ranges
                ));
            }
        }
        None
    }

    /// Heartbeat RTTs pooled over all agents.
    pub fn pooled_rtt(&self) -> Histogram {
        let mut pooled = Histogram::new();
        for a in &self.agents {
            pooled.merge(&a.rtt);
        }
        pooled
    }

    /// Serialises the report to JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"agents\": {},\n", self.agents.len()));
        out.push_str(&format!("  \"relaunches\": {},\n", self.total_relaunches()));
        out.push_str(&format!("  \"chunk_retries\": {},\n", self.total_chunk_retries()));
        out.push_str(&format!("  \"chunks_merged\": {},\n", self.total_chunks_merged()));
        out.push_str(&format!("  \"chunk_bytes\": {},\n", self.total_chunk_bytes()));
        out.push_str(&format!("  \"heartbeats\": {},\n", self.total_heartbeats()));
        out.push_str(&format!("  \"resumes\": {},\n", self.total_resumes()));
        out.push_str(&format!("  \"duplicate_chunks\": {},\n", self.total_duplicate_chunks()));
        out.push_str(&format!("  \"corrupt_frames\": {},\n", self.corrupt_frames));
        out.push_str(&format!("  \"manager_restores\": {},\n", self.manager_restores));
        out.push_str(&format!("  \"window_peak\": {},\n", self.max_window_peak()));
        out.push_str(&format!("  \"frontier_lag_peak\": {},\n", self.max_frontier_lag()));
        out.push_str(&format!("  \"merge_queue_peak\": {},\n", self.merge_queue_peak));
        out.push_str(&format!("  \"connections_rejected\": {},\n", self.connections_rejected));
        out.push_str(&format!("  \"connections_peak\": {},\n", self.connections_peak));
        out.push_str(&format!("  \"handshake_timeouts\": {},\n", self.handshake_timeouts));
        out.push_str(&format!("  \"idle_reaped\": {},\n", self.idle_reaped));
        out.push_str(&format!("  \"slow_loris_reaped\": {},\n", self.slow_loris_reaped));
        out.push_str(&format!("  \"protocol_violations\": {},\n", self.protocol_violations));
        out.push_str(&format!("  \"accept_resource_errors\": {},\n", self.accept_resource_errors));
        out.push_str(&format!("  \"chunks_shed\": {},\n", self.chunks_shed));
        out.push_str(&format!("  \"window_shrinks\": {},\n", self.window_shrinks));
        out.push_str(&format!("  \"wal_append_failures\": {},\n", self.wal_append_failures));
        out.push_str(&format!("  \"checkpoint_failures\": {},\n", self.checkpoint_failures));
        out.push_str(&format!(
            "  \"wal_undecodable_records\": {},\n",
            self.wal_undecodable_records
        ));
        out.push_str(&format!(
            "  \"degraded_heartbeats\": {},\n",
            self.total_degraded_heartbeats()
        ));
        out.push_str(&format!(
            "  \"reactor_loop_micros\": {},\n",
            legacy_json(&self.reactor_loop_hist)
        ));
        out.push_str(&format!(
            "  \"heartbeat_rtt_micros\": {},\n",
            legacy_json(&self.pooled_rtt())
        ));
        out.push_str(&format!(
            "  \"merge_dwell_micros\": {},\n",
            self.merge_dwell_micros.to_json()
        ));
        out.push_str(&format!(
            "  \"frontier_lag_chunks\": {},\n",
            self.frontier_lag_chunks.to_json()
        ));
        out.push_str("  \"per_agent\": [\n");
        for (i, a) in self.agents.iter().enumerate() {
            let ranges: Vec<String> =
                a.merged_ranges.iter().map(|&(lo, hi)| format!("[{lo}, {hi}]")).collect();
            out.push_str(&format!(
                "    {{\"agent\": {}, \"heartbeats\": {}, \"relaunches\": {}, \"deaths\": {}, \
                 \"chunks_merged\": {}, \"chunk_bytes\": {}, \"chunk_retries\": {}, \
                 \"duplicate_chunks\": {}, \"resumes\": {}, \"registrations\": {}, \
                 \"uptime_ms\": {}, \"rtt_mean_micros\": {}, \"window_peak\": {}, \
                 \"frontier_lag_peak\": {}, \"merged_ranges\": [{}]}}{}\n",
                i,
                a.heartbeats,
                a.relaunches,
                a.deaths,
                a.chunks_merged,
                a.chunk_bytes,
                a.chunk_retries,
                a.duplicate_chunks,
                a.resumes,
                a.registrations,
                a.uptime_ms,
                integer_mean(&a.rtt),
                a.window_peak,
                a.frontier_lag_peak,
                ranges.join(", "),
                if i + 1 < self.agents.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// `sum / count`, rounded down; 0 with no samples.
fn integer_mean(h: &Histogram) -> u64 {
    h.sum().checked_div(h.count()).unwrap_or(0)
}

/// The spaced `{"count": .., "min": .., "mean": .., "max": .., "p50": ..,
/// "p90": .., "p99": ..}` object of the report's two oldest latency keys,
/// integer mean included: BENCH parsers read these bytes.
fn legacy_json(h: &Histogram) -> String {
    format!(
        "{{\"count\": {}, \"min\": {}, \"mean\": {}, \"max\": {}, \"p50\": {}, \"p90\": {}, \
         \"p99\": {}}}",
        h.count(),
        h.min(),
        integer_mean(h),
        h.max(),
        h.p50(),
        h.p90(),
        h.p99()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_sum_over_agents() {
        let mut m = PlatformMetrics::new(2);
        m.agents[0].relaunches = 1;
        m.agents[0].chunk_retries = 1;
        m.agents[1].chunks_merged = 4;
        m.agents[0].rtt.record(50);
        m.agents[1].rtt.record(150);
        assert_eq!(m.total_relaunches(), 1);
        assert_eq!(m.total_chunk_retries(), 1);
        assert_eq!(m.total_chunks_merged(), 4);
        let pooled = m.pooled_rtt();
        assert_eq!(pooled.count(), 2);
        assert_eq!(pooled.min(), 50);
        assert_eq!(pooled.max(), 150);
    }

    #[test]
    fn merged_ranges_form_an_exactly_once_ledger() {
        let mut a = AgentMetrics::default();
        for seq in [0u64, 1, 2, 5, 6, 4] {
            assert!(a.note_merged(seq), "seq {seq} is new");
        }
        assert_eq!(a.merged_ranges, vec![(0, 2), (4, 6)]);
        assert_eq!(a.merged_seq_count(), 6);
        // Every covered sequence is refused the second time.
        for seq in [0u64, 2, 4, 6] {
            assert!(!a.note_merged(seq), "seq {seq} is a double merge");
        }
        assert_eq!(a.merged_seq_count(), 6);
        // Bridging the gap coalesces the ranges.
        assert!(a.note_merged(3));
        assert_eq!(a.merged_ranges, vec![(0, 6)]);
        assert_eq!(a.merged_seq_count(), 7);
    }

    #[test]
    fn double_merge_violation_reports_disagreement() {
        let mut m = PlatformMetrics::new(2);
        m.agents[1].note_merged(0);
        m.agents[1].chunks_merged = 1;
        assert_eq!(m.double_merge_violation(), None);
        m.agents[1].chunks_merged = 2; // merged twice, ledger saw one seq
        assert!(m.double_merge_violation().unwrap().contains("agent 1"));
    }

    #[test]
    fn json_report_surfaces_percentiles_beside_legacy_keys() {
        let mut m = PlatformMetrics::new(1);
        for v in 1..=100u64 {
            m.reactor_loop_hist.record(v);
            m.merge_dwell_micros.record(v);
            m.frontier_lag_chunks.record(v % 8);
        }
        let json = m.to_json();
        // Legacy keys intact, in the same object as the new percentiles.
        assert!(json.contains(
            "\"reactor_loop_micros\": {\"count\": 100, \"min\": 1, \"mean\": 50, \"max\": 100, \"p50\":"
        ));
        assert!(json.contains("\"heartbeat_rtt_micros\": {\"count\": 0,"));
        assert!(json.contains("\"merge_dwell_micros\": {\"count\":100,"));
        assert!(json.contains("\"frontier_lag_chunks\": {\"count\":100,"));
        assert!(json.matches("\"p99\":").count() >= 4);
    }

    /// `to_json` of a fixed report, captured from the build before the
    /// latency objects moved from min/mean/max counters onto histograms:
    /// the report's bytes did not change.
    #[test]
    fn json_report_matches_the_pre_histogram_fixture() {
        let mut m = PlatformMetrics::new(2);
        for (agent, rtts) in [(0usize, &[120u64, 80, 95][..]), (1, &[300, 45][..])] {
            m.agents[agent].heartbeats = rtts.len() as u64 + 1;
            for &r in rtts {
                m.agents[agent].rtt.record(r);
            }
        }
        m.agents[1].note_merged(0);
        m.agents[1].chunks_merged = 1;
        for v in 1..=100u64 {
            m.reactor_loop_hist.record((v * 37) % 250 + 1);
        }
        assert_eq!(m.to_json(), FIXTURE);
    }

    const FIXTURE: &str = r#"{
  "agents": 2,
  "relaunches": 0,
  "chunk_retries": 0,
  "chunks_merged": 1,
  "chunk_bytes": 0,
  "heartbeats": 7,
  "resumes": 0,
  "duplicate_chunks": 0,
  "corrupt_frames": 0,
  "manager_restores": 0,
  "window_peak": 0,
  "frontier_lag_peak": 0,
  "merge_queue_peak": 0,
  "connections_rejected": 0,
  "connections_peak": 0,
  "handshake_timeouts": 0,
  "idle_reaped": 0,
  "slow_loris_reaped": 0,
  "protocol_violations": 0,
  "accept_resource_errors": 0,
  "chunks_shed": 0,
  "window_shrinks": 0,
  "wal_append_failures": 0,
  "checkpoint_failures": 0,
  "wal_undecodable_records": 0,
  "degraded_heartbeats": 0,
  "reactor_loop_micros": {"count": 100, "min": 7, "mean": 127, "max": 250, "p50": 124, "p90": 216, "p99": 248},
  "heartbeat_rtt_micros": {"count": 5, "min": 45, "mean": 128, "max": 300, "p50": 92, "p90": 288, "p99": 288},
  "merge_dwell_micros": {"count":0,"min":0,"mean":0.0,"max":0,"p50":0,"p90":0,"p99":0},
  "frontier_lag_chunks": {"count":0,"min":0,"mean":0.0,"max":0,"p50":0,"p90":0,"p99":0},
  "per_agent": [
    {"agent": 0, "heartbeats": 4, "relaunches": 0, "deaths": 0, "chunks_merged": 0, "chunk_bytes": 0, "chunk_retries": 0, "duplicate_chunks": 0, "resumes": 0, "registrations": 0, "uptime_ms": 0, "rtt_mean_micros": 98, "window_peak": 0, "frontier_lag_peak": 0, "merged_ranges": []},
    {"agent": 1, "heartbeats": 3, "relaunches": 0, "deaths": 0, "chunks_merged": 1, "chunk_bytes": 0, "chunk_retries": 0, "duplicate_chunks": 0, "resumes": 0, "registrations": 0, "uptime_ms": 0, "rtt_mean_micros": 172, "window_peak": 0, "frontier_lag_peak": 0, "merged_ranges": [[0, 0]]}
  ]
}
"#;

    #[test]
    fn json_report_carries_headline_counters() {
        let mut m = PlatformMetrics::new(1);
        m.agents[0].relaunches = 1;
        m.agents[0].chunk_retries = 2;
        m.agents[0].heartbeats = 7;
        let json = m.to_json();
        assert!(json.contains("\"relaunches\": 1"));
        assert!(json.contains("\"chunk_retries\": 2"));
        assert!(json.contains("\"heartbeats\": 7"));
        assert!(json.contains("\"per_agent\""));
    }
}
