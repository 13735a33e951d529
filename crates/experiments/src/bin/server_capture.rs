//! The server-side measurement: a ten-simulated-week server capture with
//! streaming compressed logs, plus the honeypot cross-validation figures
//! (the "Ten weeks in the life of an eDonkey server" modality run against
//! the same simulated network as the honeypot measurement).
//!
//! The run bypasses the run cache on purpose: the capture is a byproduct
//! of the simulation itself (the cache only stores the honeypot log), and
//! this binary's whole point is exercising the streaming write path.
//!
//! Usage:
//!   cargo run --release -p edonkey-experiments --bin server_capture -- \
//!     [--scale F] [--seed N] [--days D] [--out DIR] [--smoke]
//!
//! `--smoke` is the CI gate: a short capture at small scale that asserts
//! bounded peak RSS and cross-validation agreement within the documented
//! [`Tolerance`], exiting non-zero on any violation.

use std::time::Instant;

use edonkey_analysis::{cross_validate, LogIndex, ServerIndexBuilder, Tolerance};
use edonkey_experiments::{peak_rss_kb, scenarios};
use edonkey_sim::run_scenario_with_capture;
use honeypot::ServerLogReader;
use netsim::SimTime;

/// Peak-RSS ceiling for the smoke gate.  The capture streams frames to
/// disk, so memory is dominated by the simulation itself; generous enough
/// for CI noise, tight enough to catch "the capture buffers everything".
const SMOKE_MAX_RSS_KB: u64 = 2 * 1024 * 1024; // 2 GiB

fn main() {
    let mut scale = 0.2;
    let mut seed = scenarios::DEFAULT_SEED;
    let mut days = scenarios::SERVER_CAPTURE_DAYS;
    let mut out_dir: Option<std::path::PathBuf> = None;
    let mut smoke = false;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let usage = || -> ! {
        eprintln!("usage: server_capture [--scale F] [--seed N] [--days D] [--out DIR] [--smoke]");
        std::process::exit(2)
    };
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                scale = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .filter(|&s| s > 0.0)
                    .unwrap_or_else(|| usage());
            }
            "--seed" => {
                i += 1;
                seed = args.get(i).and_then(|v| v.parse().ok()).unwrap_or_else(|| usage());
            }
            "--days" => {
                i += 1;
                days = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .filter(|&d| d > 0)
                    .unwrap_or_else(|| usage());
            }
            "--out" => {
                i += 1;
                out_dir = Some(args.get(i).map(Into::into).unwrap_or_else(|| usage()));
            }
            "--smoke" => smoke = true,
            _ => usage(),
        }
        i += 1;
    }
    if smoke {
        // The CI gate: two simulated weeks at small scale — long enough
        // for multi-day discovery/diurnal statistics, short enough for CI.
        scale = 0.05;
        days = 14;
    }

    let dir = out_dir.unwrap_or_else(|| {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .expect("workspace root")
            .join("target")
            .join("server-capture")
    });

    let mut config = scenarios::server_ten_weeks(seed, scale);
    config.duration = SimTime::from_days(days);
    eprintln!(
        "[server-capture] {days} simulated days @ scale {scale}, seed {seed:#x} → {}",
        dir.display()
    );
    let t = Instant::now();
    let run = run_scenario_with_capture(config, &dir).expect("capture run");
    let sim_secs = t.elapsed().as_secs_f64();
    eprintln!(
        "[server-capture] simulated {} events in {sim_secs:.1}s ({:.0} events/s), peak RSS {:.1} MB",
        run.output.events_handled,
        run.output.events_handled as f64 / sim_secs.max(1e-9),
        peak_rss_kb().unwrap_or(0) as f64 / 1024.0,
    );
    let stats = &run.capture;
    eprintln!(
        "[server-capture] capture: {} records in {} segment(s), {} → {} bytes \
         ({:.2} B/record, {:.2}x)",
        stats.records,
        stats.segments,
        stats.raw_bytes,
        stats.compressed_bytes,
        stats.bytes_per_record(),
        stats.raw_bytes as f64 / (stats.compressed_bytes as f64).max(1.0),
    );

    // Stream the capture back off disk into the server-side index — one
    // segment file and one frame in memory at a time, never the whole
    // capture.
    let t = Instant::now();
    let mut reader = ServerLogReader::open(&dir).expect("open capture");
    let mut builder = ServerIndexBuilder::new(SimTime::from_days(days));
    while let Some(r) = reader.next() {
        builder.push_record(&r);
    }
    assert!(!reader.truncated(), "fresh capture must read back cleanly");
    let server_ix = builder.finish();
    assert_eq!(server_ix.records, stats.records, "reader must return every written record");
    eprintln!(
        "[server-capture] replayed {} records in {:.2}s",
        server_ix.records,
        t.elapsed().as_secs_f64()
    );

    // The cross-validation figures: the same run seen from the server and
    // from the honeypots.
    let log = &run.output.log;
    let cv = cross_validate(&server_ix, log, &LogIndex::build(log));
    println!("server-side capture, {} simulated days @ scale {scale}", days);
    println!("  server records        {}", server_ix.records);
    println!("  compressed            {:.2} B/record", stats.bytes_per_record());
    println!("  peak users            {}", server_ix.peak_users);
    println!("  peak indexed files    {}", server_ix.peak_indexed_files);
    println!("figure: peer discovery (server vs honeypots)");
    println!("  distinct peers        {} vs {}", cv.server_peers, cv.honeypot_peers);
    println!("  honeypot coverage     {:.3}", cv.peer_coverage);
    println!("  daily-cumulative corr {:.4}", cv.discovery_corr);
    println!("figure: diurnal oscillation");
    println!("  hour-of-day corr      {:.4}", cv.diurnal_corr);
    println!(
        "  day/night ratio       {:.2} (server) vs {:.2} (honeypots)",
        cv.server_day_night, cv.honeypot_day_night
    );
    println!("figure: file popularity");
    println!("  files joined          {}", cv.files_joined);
    println!("  rank correlation      {:.4}", cv.popularity_rank_corr);

    let tolerance = Tolerance::default();
    let violations = tolerance.violations(&cv);
    if smoke {
        let rss = peak_rss_kb().unwrap_or(0);
        eprintln!(
            "[smoke] peak RSS {:.1} MB (ceiling {} MB)",
            rss as f64 / 1024.0,
            SMOKE_MAX_RSS_KB / 1024
        );
        let mut failed = false;
        if rss > SMOKE_MAX_RSS_KB {
            eprintln!("[smoke] FAIL: peak RSS {rss} kB above the {SMOKE_MAX_RSS_KB} kB ceiling");
            failed = true;
        }
        for v in &violations {
            eprintln!("[smoke] FAIL: cross-validation outside tolerance: {v}");
            failed = true;
        }
        if stats.records == 0 || stats.segments == 0 {
            eprintln!("[smoke] FAIL: empty capture");
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        eprintln!("[smoke] PASS: modalities agree within tolerance ({tolerance:?})");
    } else if !violations.is_empty() {
        eprintln!("[server-capture] WARNING: cross-validation outside default tolerance:");
        for v in &violations {
            eprintln!("[server-capture]   {v}");
        }
    } else {
        eprintln!("[server-capture] modalities agree within default tolerance");
    }
}
