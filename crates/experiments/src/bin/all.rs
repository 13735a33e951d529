//! Runs both measurements once (concurrently — they are independent
//! seeded simulations), builds one [`LogIndex`] per log, regenerates every
//! table and figure from the shared indexes, and rewrites `EXPERIMENTS.md`
//! with paper-vs-measured values.  Per-phase wall-clock timings go to
//! stderr so `--scale` sweeps can attribute time to simulate / index /
//! figures.

use std::fmt::Write as _;
use std::time::Instant;

use edonkey_analysis::LogIndex;
use edonkey_experiments::figures;
use edonkey_experiments::{Measurement, Options};
use honeypot::MeasurementLog;
use netsim::{json_object, Json};

/// Paper-reported values each artefact is compared against.
fn paper_reference() -> Json {
    json_object! {
        "table1": json_object! {
            "distributed": json_object! {
                "honeypots": 24, "days": 32, "shared_files": 4,
                "distinct_peers": 110_049, "distinct_files": 28_007, "space_tb": 9,
            },
            "greedy": json_object! {
                "honeypots": 1, "days": 15, "shared_files": 3_175,
                "distinct_peers": 871_445, "distinct_files": 267_047, "space_tb": 90,
            },
        },
        "fig02": json_object! { "total_peers": 110_049, "tail_new_per_day": 2_500 },
        "fig03": json_object! { "total_peers": 871_445, "tail_new_per_day": 54_000 },
        "fig04": json_object! {
            "first_query_min": 10, "day_night": "clear oscillation, peaks daytime",
        },
        "fig05": json_object! { "ordering": "random content > no content (distinct HELLO peers)" },
        "fig06": json_object! {
            "ordering": "random content > no content (distinct START-UPLOAD peers)",
        },
        "fig07": json_object! { "final_random": 1_900_000, "final_no": 1_500_000 },
        "fig08": json_object! {
            "ordering": "top peer sends more START-UPLOAD to random content (~5.5k vs ~4k)",
        },
        "fig09": json_object! {
            "ordering": "top peer sends more REQUEST-PART to random content (~11k vs ~8k)",
        },
        "fig10": json_object! { "single_min": 13_000, "single_max": 37_000, "union_24": 110_049 },
        "fig11": json_object! { "peers_per_file": 1_000, "union_100": 100_000 },
        "fig12": json_object! {
            "peers_per_file": 2_700, "union_100": 270_000,
            "best_file_peers": 13_373, "worst_file_peers": 2,
        },
    }
}

fn main() {
    let opts = Options::from_args();
    let t_total = Instant::now();

    if opts.live_loopback {
        // Demo path: deploy the real control plane (manager daemon + 3
        // supervised agents + eDonkey server, all loopback TCP) with one
        // injected crash, and prove the transport lossless by replay.
        // With --spool-dir the run is durable and a manager crash plus
        // recovery is exercised on top.
        let t_phase = Instant::now();
        let durability = opts.live_durability();
        let demo = edonkey_experiments::run_live_loopback(3, opts.seed, true, durability.as_ref())
            .expect("live loopback deployment");
        eprintln!(
            "[all] live loopback: {} records, {} relaunches, {} manager restores, {} resumes in {:.2}s",
            demo.log.records.len(),
            demo.metrics.total_relaunches(),
            demo.metrics.manager_restores,
            demo.metrics.total_resumes(),
            t_phase.elapsed().as_secs_f64()
        );
        assert_eq!(demo.divergence, None, "journal replay must reproduce the live log");
        println!("{}", demo.metrics.to_json());
        return;
    }

    // The two measurements share nothing (separate seeded worlds), so they
    // run on their own OS threads; each log's index is then built once and
    // serves every figure below.
    let t_phase = Instant::now();
    let (dist, greedy) = std::thread::scope(|s| {
        let d = s.spawn(|| opts.run(Measurement::Distributed));
        let g = s.spawn(|| opts.run(Measurement::Greedy));
        (d.join().expect("distributed run"), g.join().expect("greedy run"))
    });
    eprintln!(
        "[all] phase simulate: {:.2}s (both measurements, concurrent)",
        t_phase.elapsed().as_secs_f64()
    );

    let t_phase = Instant::now();
    let dist_ix = LogIndex::build(&dist);
    let greedy_ix = LogIndex::build(&greedy);
    assert_eq!(dist_ix.recount_distinct_peers(), u64::from(dist.distinct_peers));
    assert_eq!(greedy_ix.recount_distinct_peers(), u64::from(greedy.distinct_peers));
    eprintln!(
        "[all] phase index: {:.2}s ({} records)",
        t_phase.elapsed().as_secs_f64(),
        dist.records.len() + greedy.records.len()
    );

    let t_phase = Instant::now();
    let artefacts = figures::all(&dist, &greedy, &dist_ix, &greedy_ix, opts.samples, opts.seed);
    eprintln!("[all] phase figures: {:.2}s", t_phase.elapsed().as_secs_f64());

    for (_, a) in &artefacts {
        println!("{}\n", a.text);
    }

    let md = render_experiments_md(&opts, &dist, &greedy, &artefacts);
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .join("EXPERIMENTS.md");
    match std::fs::write(&path, md) {
        Ok(()) => eprintln!("[all] wrote {}", path.display()),
        Err(e) => eprintln!("[all] could not write {}: {e}", path.display()),
    }

    if opts.json {
        println!("{}", raw_data(&artefacts).pretty());
    }
    eprintln!("[all] total: {:.2}s", t_total.elapsed().as_secs_f64());
}

/// Every artefact's data under its id.
fn raw_data(artefacts: &[(&str, figures::Artefact)]) -> Json {
    Json::object(artefacts.iter().map(|(id, a)| (*id, a.data.clone())))
}

fn summary_line(id: &str, data: &Json) -> String {
    match id {
        "table1" => {
            format!(
            "distributed: {} peers / {} files / {:.1} TB — greedy: {} peers / {} files / {:.1} TB",
            data["distributed"]["distinct_peers"], data["distributed"]["distinct_files"],
            data["distributed"]["space_tb"].as_f64().unwrap_or(0.0),
            data["greedy"]["distinct_peers"], data["greedy"]["distinct_files"],
            data["greedy"]["space_tb"].as_f64().unwrap_or(0.0),
        )
        }
        "fig02" | "fig03" => format!(
            "{} total peers, {:.0} new/day at the end",
            data["total_peers"],
            data["tail_new_per_day"].as_f64().unwrap_or(0.0)
        ),
        "fig04" => format!(
            "first query after {:.1} min, day/night ratio {:.1}×",
            data["first_query_min"].as_f64().unwrap_or(0.0),
            data["day_night_ratio"].as_f64().unwrap_or(0.0)
        ),
        "fig05" | "fig06" | "fig07" | "fig08" | "fig09" => {
            format!("random content {} vs no content {}", data["final_random"], data["final_no"])
        }
        "fig10" => format!(
            "singles {}–{}, union(24) {}",
            data["single_min"],
            data["single_max"],
            data["avg"].as_array().and_then(|a| a.last()).unwrap_or(&Json::Int(0))
        ),
        "fig11" | "fig12" => format!(
            "≈{:.0} peers/file, union(100) {}, best file {}, worst {}",
            data["peers_per_file"].as_f64().unwrap_or(0.0),
            data["avg"].as_array().and_then(|a| a.last()).unwrap_or(&Json::Int(0)),
            data["best_file_peers"],
            data["worst_file_peers"]
        ),
        _ => String::new(),
    }
}

fn render_experiments_md(
    opts: &Options,
    dist: &MeasurementLog,
    greedy: &MeasurementLog,
    artefacts: &[(&str, figures::Artefact)],
) -> String {
    let reference = paper_reference();
    let mut md = String::new();
    let _ = writeln!(
        md,
        "# EXPERIMENTS — paper vs. measured\n\n\
         Reproduction of every table and figure of *Measurement of eDonkey Activity\n\
         with Distributed Honeypots* (Allali, Latapy & Magnien, 2009) on the simulated\n\
         eDonkey world (see DESIGN.md for the substitution argument).\n\n\
         Run: `cargo run --release -p edonkey-experiments --bin all -- --scale {} --seed {:#x} --samples {}`\n\n\
         Absolute magnitudes depend on the synthetic population's calibration; the\n\
         claims under test are the *shapes*: who wins, by what rough factor, and\n\
         where the curves bend.\n",
        opts.scale, opts.seed, opts.samples
    );
    let _ = writeln!(
        md,
        "Distributed run: {} records, {} distinct peers. Greedy run: {} records, {} distinct peers.\n",
        dist.records.len(),
        dist.distinct_peers,
        greedy.records.len(),
        greedy.distinct_peers
    );
    if opts.load.is_some() {
        let _ = writeln!(
            md,
            "Measurement logs were loaded with `--load`; the scale/seed above\n\
             describe this invocation, not necessarily the loaded logs.\n"
        );
    }
    let titles: &[(&str, &str)] = &[
        ("table1", "Table I — basic statistics"),
        ("fig02", "Fig. 2 — peer growth, distributed"),
        ("fig03", "Fig. 3 — peer growth, greedy"),
        ("fig04", "Fig. 4 — HELLO per hour, day/night"),
        ("fig05", "Fig. 5 — distinct HELLO peers per strategy"),
        ("fig06", "Fig. 6 — distinct START-UPLOAD peers per strategy"),
        ("fig07", "Fig. 7 — REQUEST-PART messages per strategy"),
        ("fig08", "Fig. 8 — top peer START-UPLOAD"),
        ("fig09", "Fig. 9 — top peer REQUEST-PART"),
        ("fig10", "Fig. 10 — peers vs honeypots"),
        ("fig11", "Fig. 11 — peers vs files (random)"),
        ("fig12", "Fig. 12 — peers vs files (popular)"),
    ];
    for (id, title) in titles {
        let Some((_, artefact)) = artefacts.iter().find(|(a, _)| a == id) else { continue };
        let _ = writeln!(md, "## {title}\n");
        let _ = writeln!(md, "* paper: `{}`", reference[*id]);
        let _ = writeln!(md, "* measured: {}\n", summary_line(id, &artefact.data));
        let _ = writeln!(md, "```text\n{}```\n", artefact.text);
    }
    let _ = writeln!(md, "## Raw data\n\n```json\n{}\n```", raw_data(artefacts).pretty());
    md
}
