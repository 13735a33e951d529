//! A live control-plane measurement on loopback TCP: manager daemon,
//! in-process eDonkey server and three supervised honeypot agents — one
//! of which is crash-injected to show the heartbeat-deadline → dead →
//! relaunch → resume cycle end to end.
//!
//! ```sh
//! cargo run --release --example live_loopback
//! # crash-safe variant: durable agent spools + manager checkpoint, with
//! # a manager kill and recovery in the middle of the measurement
//! cargo run --release --example live_loopback -- --durable /tmp/edhp-live
//! ```
//!
//! The example finishes by replaying the agents' pre-transport chunk
//! journal through a fresh in-process manager and checking the result
//! against the live measurement — the proof that the control plane moved
//! every record exactly once, unmodified, in order (in the durable
//! variant: across a manager restart too).

use std::time::Duration;

use edonkey_honeypots::control::{
    CheckpointOptions, FaultPlan, LoopbackDeployment, LoopbackOptions, LoopbackSpec,
};
use edonkey_honeypots::platform::{AdvertisedFile, ContentStrategy, FileStrategy};
use edonkey_honeypots::proto::FileId;
use netsim::SimTime;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let durable_root = match args.as_slice() {
        [] => None,
        [flag, dir] if flag == "--durable" => Some(std::path::PathBuf::from(dir)),
        _ => {
            eprintln!("usage: live_loopback [--durable DIR]");
            std::process::exit(2);
        }
    };

    let file = |i: usize| FileId::from_seed(format!("live-example-{i}").as_bytes());
    let specs: Vec<LoopbackSpec> = (0..3)
        .map(|i| LoopbackSpec {
            content: ContentStrategy::NoContent,
            files: FileStrategy::Fixed(vec![AdvertisedFile::new(
                file(i),
                format!("example file {i}.avi"),
                42_000_000,
            )]),
            // The last agent dies right after its first upload: watch the
            // daemon declare it dead and bring it back.
            fault: if i == 2 {
                FaultPlan { kill_after_chunk: Some(0), ..FaultPlan::default() }
            } else {
                FaultPlan::default()
            },
            impair: None,
            spool_faults: None,
        })
        .collect();

    let mut opts = LoopbackOptions::default();
    if let Some(root) = &durable_root {
        opts.daemon.checkpoint = Some(CheckpointOptions::new(root.join("ckpt")));
        opts.spool_dir = Some(root.join("spool"));
    }
    let mut deployment = LoopbackDeployment::start(specs, opts).expect("start deployment");
    assert!(deployment.wait_ready(Duration::from_secs(10)), "agents never became ready");
    println!("deployment up: daemon at {}, 3 agents ready", deployment.daemon().addr());

    for i in 0..3u32 {
        deployment.drive_download(&format!("example-peer-{i}"), i, file(i as usize), 1, &[]);
    }
    deployment.wait_chunks(3, Duration::from_secs(10));
    println!("round 1 merged ({} chunks)", deployment.daemon().chunks_collected());

    deployment.daemon().wait_relaunches(1, Duration::from_secs(10));
    println!("agent 2 crashed and was relaunched ({}×)", deployment.daemon().relaunch_count());
    deployment.wait_ready(Duration::from_secs(10));
    deployment.drive_download("example-peer-revisit", 2, file(2), 1, &[]);
    deployment.wait_chunks(4, Duration::from_secs(10));

    if durable_root.is_some() {
        // The restart-recovery cycle: kill the manager without a drain,
        // then bring up a fresh one from the checkpoint + chunk WAL.  The
        // merges so far must survive and the agents must re-register
        // against the new address (their spools intact).  The pause lets a
        // supervision snapshot (every 100 ms by default) record the merges
        // and the relaunch above before the kill.
        std::thread::sleep(Duration::from_millis(300));
        let merged = deployment.daemon().chunks_collected();
        deployment.crash_daemon();
        println!("manager crashed with {merged} chunks merged; recovering …");
        deployment.recover_daemon().expect("recover daemon");
        assert!(
            deployment.wait_ready(Duration::from_secs(30)),
            "agents never re-registered after recovery"
        );
        assert_eq!(
            deployment.daemon().chunks_collected(),
            merged,
            "WAL replay must restore the pre-crash merges"
        );
        println!("manager recovered: {merged} chunks restored from the WAL, agents re-registered");
        deployment.drive_download("example-peer-postcrash", 0, file(0), 1, &[]);
        deployment.wait_chunks(merged + 1, Duration::from_secs(20));
    }

    let outcome = deployment.finish(SimTime::from_secs(60), 4, 1, Duration::from_secs(5));
    println!(
        "measurement: {} records, {} distinct peers, {} honeypots",
        outcome.log.records.len(),
        outcome.log.distinct_peers,
        outcome.log.honeypots.len()
    );
    match outcome.replay_divergence() {
        None => println!("journal replay matches the live measurement: transport was lossless"),
        Some(diff) => {
            eprintln!("DIVERGENCE: {diff}");
            std::process::exit(1);
        }
    }
    println!("\nplatform metrics:\n{}", outcome.metrics.to_json());
}
