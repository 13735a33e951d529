//! Acceptance tests for the server-side capture (the "ten weeks in the
//! life of an eDonkey server" modality):
//!
//! * **observation only** — attaching a capture leaves the honeypot
//!   measurement bit-identical;
//! * **lossless round trip** — every record the server emits comes back
//!   from disk, in order;
//! * **queue independence** — all three pending queues produce
//!   byte-identical capture files, like they do for the honeypot log.

use std::fs;
use std::path::PathBuf;

use edonkey_proto::md4::{md4, to_hex};
use edonkey_sim::{
    run_scenario, run_scenario_with_capture, QueueKind, ScenarioConfig, ServerCaptureConfig,
};
use honeypot::serverlog::{ServerLogReader, ServerQueryKind, SERVER_PEER_SESSION_BASE};

/// The Heap run's record count and the MD4 of its segment files, in name
/// order: the capture is pinned absolutely, not only across queues.
const HEAP_CAPTURE_RECORDS: u64 = 1_054;
const HEAP_CAPTURE_MD4: &str = "9421f47510068a6c307ed8e6d5019bb2";

fn capture_config(seed: u64) -> ScenarioConfig {
    let mut config = ScenarioConfig::tiny(seed).scaled(0.5);
    config.server_capture = Some(ServerCaptureConfig {
        // Small frames/segments so a two-day run still exercises frame
        // flushing and segment rotation.
        frame_records: 64,
        segment_bytes: 4_096,
        ..Default::default()
    });
    config
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("edsl-world-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

#[test]
fn capture_is_pure_observation() {
    let dir = tmp_dir("pure");
    let config = capture_config(42);
    let with = run_scenario_with_capture(config.clone(), &dir).unwrap();
    let without = run_scenario(config);
    assert!(with.capture.records > 0, "capture must see traffic");
    // The honeypot measurement is bit-identical with or without capture.
    assert_eq!(with.output.log.records, without.log.records);
    assert_eq!(with.output.log.distinct_peers, without.log.distinct_peers);
    assert_eq!(with.output.log.shared_lists.len(), without.log.shared_lists.len());
    assert_eq!(with.output.stats.request_parts_sent, without.stats.request_parts_sent);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn capture_round_trips_from_disk() {
    let dir = tmp_dir("roundtrip");
    let out = run_scenario_with_capture(capture_config(7), &dir).unwrap();
    assert!(out.capture.segments > 1, "small segments must rotate");
    assert!(
        out.capture.bytes_per_record() < 56.0,
        "compression must beat the raw record ({} B/record)",
        out.capture.bytes_per_record()
    );

    let mut reader = ServerLogReader::open(&dir).unwrap();
    let mut n = 0u64;
    let mut last_at = netsim::SimTime::ZERO;
    let mut peer_sessions = std::collections::HashSet::new();
    let mut kind_seen = [false; 6];
    while let Some(r) = reader.next() {
        assert!(r.at >= last_at, "records are in capture order");
        last_at = r.at;
        kind_seen[r.kind.tag() as usize] = true;
        if r.kind != ServerQueryKind::Status && r.session >= SERVER_PEER_SESSION_BASE {
            peer_sessions.insert(r.session);
        }
        n += 1;
    }
    assert!(!reader.truncated(), "clean capture must read to the end");
    assert_eq!(n, out.capture.records, "every record written comes back");
    assert!(kind_seen.iter().all(|&k| k), "all six query kinds occur: {kind_seen:?}");
    // Server-observed peers dominate honeypot-observed peers: every peer
    // talks to the server, only some reach a honeypot.
    assert!(
        peer_sessions.len() as u64 >= u64::from(out.output.log.distinct_peers),
        "server sees {} peers, honeypots {}",
        peer_sessions.len(),
        out.output.log.distinct_peers
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn capture_files_identical_across_queues() {
    let mut captures = Vec::new();
    for (tag, queue) in
        [("heap", QueueKind::Heap), ("cal", QueueKind::Calendar), ("wheel", QueueKind::Wheel)]
    {
        let dir = tmp_dir(tag);
        let mut config = capture_config(11);
        config.queue = queue;
        let out = run_scenario_with_capture(config, &dir).unwrap();
        let mut segments: Vec<PathBuf> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|e| e == "seg"))
            .collect();
        segments.sort();
        let bytes: Vec<Vec<u8>> = segments.iter().map(|p| fs::read(p).unwrap()).collect();
        captures.push((queue, out.capture.records, bytes));
        let _ = fs::remove_dir_all(&dir);
    }
    let (_, records0, bytes0) = &captures[0];
    assert!(!bytes0.is_empty(), "the capture must have written segment files");
    assert_eq!(*records0, HEAP_CAPTURE_RECORDS, "Heap record count");
    assert_eq!(to_hex(&md4(&bytes0.concat())), HEAP_CAPTURE_MD4, "Heap capture bytes changed");
    for (queue, records, bytes) in &captures[1..] {
        assert_eq!(records, records0, "{queue:?} record count");
        assert_eq!(bytes, bytes0, "{queue:?} capture must be byte-identical to Heap");
    }
}
