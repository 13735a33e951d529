//! The benchmark's metric names: the single source `BENCHMARK.json` is
//! checked against (see the test at the bottom).
//!
//! Every workload reports every metric.  An end-to-end metric is defined
//! on all five workloads (the README gives each workload's reading of
//! it); a per-layer metric reads 0 on a workload that never enters the
//! layer, which is itself the prediction "a change there moves nothing
//! here".

use crate::trace::EVENT_KINDS;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median an end-to-end metric may worsen by;
    /// `None` for per-layer metrics.
    pub bound: Option<f64>,
}

/// How long one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 15;

pub const WORKLOADS: [(&str, &str); 5] = [
    ("sim-distributed", "the paper's headline measurement (24 honeypots, 4 files, 32 days): netsim queue + sim session/round handlers + core manager collection do the work, analysis almost none"),
    ("sim-greedy", "same layers used differently (1 honeypot adopting ~3,000 files, 15 days): keepalive re-offers and shared-list adoption dominate, so a world change that helps one sim and costs the other shows"),
    ("analyse-saved", "the cache-hit path every figure binary takes: core storage decode + analysis index and subset sampling over both saved logs; sim and netsim do nothing"),
    ("live-upload", "windowed durable chunk upload from 2 protocol-speaking clients into a real daemon (WAL + checkpoint): platform framing, spool, reactor, merge thread and core manager; sim, analysis and net do nothing"),
    ("live-loopback", "scripted eDonkey peers over real TCP against 2 supervised honeypot agents: net + proto peer codec + core honeypot do the work and the control plane carries a trickle"),
];

/// Every bound is the contract's maximum, 0.25: on the 2-vCPU sandbox the
/// host's speed drifts by more than a tenth within minutes (README, "Noise
/// floor and the bounds"), and one bound has to hold on all five workloads.
pub fn end_to_end() -> Vec<Metric> {
    let m = |name: &str, unit, better, bound| Metric {
        name: name.to_string(),
        unit,
        better,
        bound: Some(bound),
    };
    vec![
        m("pipeline_s", "s", Better::Lower, 0.25),
        m("throughput_per_s", "1/s", Better::Higher, 0.25),
        m("peak_rss_mb", "MB", Better::Lower, 0.25),
        m("setup_s", "s", Better::Lower, 0.25),
    ]
}

pub fn per_layer() -> Vec<Metric> {
    let mut out = Vec::new();
    let mut add = |name: &str, unit: &'static str, better: Better| {
        out.push(Metric { name: name.to_string(), unit, better, bound: None })
    };
    use Better::{Higher, Lower};

    for name in ["experiments.scenario_build_s", "sim.world_setup_s", "sim.run_s", "sim.finish_s"] {
        add(name, "s", Lower);
    }
    add("netsim.queue_push_count", "count", Lower);
    add("netsim.queue_pop_count", "count", Lower);
    add("netsim.queue_peak_len", "count", Lower);
    add("netsim.queue_self_s", "s", Lower);
    for kind in EVENT_KINDS {
        add(&format!("sim.events.{kind}"), "count", Lower);
    }
    for kind in EVENT_KINDS {
        add(&format!("sim.handler_self_s.{kind}"), "s", Lower);
    }

    for name in ["core.validate_s", "core.storage_save_s", "core.storage_load_s"] {
        add(name, "s", Lower);
    }
    add("core.storage_bytes", "bytes", Lower);
    add("core.records", "count", Higher);
    add("core.shared_lists", "count", Higher);
    add("core.distinct_peers", "count", Higher);
    for name in ["analysis.index_build_s", "analysis.subset_s", "experiments.figures_s"] {
        add(name, "s", Lower);
    }

    for name in [
        "platform.frame_encode_s",
        "platform.spool_append_s",
        "platform.spool_trim_s",
        "platform.conn_send_s",
        "platform.conn_poll_s",
        "platform.daemon_finish_s",
    ] {
        add(name, "s", Lower);
    }
    add("platform.wal_bytes", "bytes", Lower);
    for name in [
        "platform.chunk_retries",
        "platform.duplicate_chunks",
        "platform.window_shrinks",
        "platform.chunks_shed",
        "platform.merge_queue_peak",
        "platform.frontier_lag_peak",
    ] {
        add(name, "count", Lower);
    }
    add("platform.merge_dwell_us_p50", "us", Lower);
    add("platform.reactor_loop_us_p50", "us", Lower);
    add("platform.heartbeat_rtt_ms_p50", "ms", Lower);
    // The issue's latency metrics: demoted from end-to-end because they
    // exist on one workload each (README, "Metrics").
    for name in ["chunk_ack_ms_p50", "chunk_ack_ms_p90", "platform.chunk_ack_ms_p99"] {
        add(name, "ms", Lower);
    }
    add("core.manager_replay_records_per_s", "1/s", Higher);
    add("proto.control_codec_mb_per_s", "MB/s", Higher);
    add("proto.peer_codec_mb_per_s", "MB/s", Higher);

    for name in [
        "hello_session_ms_p50",
        "hello_session_ms_p90",
        "part_session_ms_p50",
        "part_session_ms_p90",
        "net.login_ms_p50",
        "net.part_triple_ms_p50",
    ] {
        add(name, "ms", Lower);
    }
    add("net.bytes_per_part_session", "bytes", Higher);
    add("core.records_per_session", "count", Higher);
    add("platform.agent_chunks", "count", Lower);
    add("platform.agent_chunk_rtt_us_p50", "us", Lower);
    add("platform.agent_spool_append_us_p50", "us", Lower);
    add("platform.deploy_finish_s", "s", Lower);

    add("trace_overhead_share", "share", Lower);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    /// `BENCHMARK.json` at the repository root must declare exactly the
    /// workloads and metrics the harness prints.
    #[test]
    fn benchmark_json_matches_the_harness_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc: Value = std::fs::read_to_string(path).expect("BENCHMARK.json").parse().unwrap();
        let mut keys: Vec<&String> = doc.as_object().unwrap().keys().collect();
        keys.sort();
        assert_eq!(
            keys,
            ["command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"]
        );

        let names = |key: &str| -> Vec<String> {
            doc[key]
                .as_array()
                .unwrap()
                .iter()
                .map(|m| m["name"].as_str().unwrap().into())
                .collect()
        };
        assert_eq!(names("workloads"), WORKLOADS.map(|(n, _)| n.to_string()));
        for (declared, (_, why)) in doc["workloads"].as_array().unwrap().iter().zip(WORKLOADS) {
            assert_eq!(declared["why"].as_str(), Some(why));
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
        for (key, table) in [("end_to_end", end_to_end()), ("per_layer", per_layer())] {
            assert_eq!(names(key), table.iter().map(|m| m.name.clone()).collect::<Vec<_>>());
            for (declared, m) in doc[key].as_array().unwrap().iter().zip(&table) {
                assert_eq!(declared["unit"].as_str(), Some(m.unit), "{}", m.name);
                assert_eq!(declared["better"].as_str(), Some(m.better.as_str()), "{}", m.name);
                assert_eq!(declared["bound"].as_f64(), m.bound, "{}", m.name);
                assert!(m.name.len() <= 64);
            }
        }
        assert_eq!(doc["run_seconds"].as_u64(), Some(RUN_SECONDS));
        assert!(per_layer().len() <= 128);
        assert!(end_to_end().iter().any(|m| m.name == "setup_s" && m.unit == "s"));
    }
}
