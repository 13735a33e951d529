//! The multi-run modes: the full result document, the A/A check and the
//! comparison of two documents.  Each run is a child process of this
//! binary (`--workload …`), so every workload's memory peak is its own.

use std::path::Path;
use std::process::Command;

use serde_json::{json, Map, Value};

use crate::metrics::{end_to_end, per_layer, Better, Metric, WORKLOADS};
use crate::stats::{median, spread, summary};
use crate::RunArgs;

/// Runs one workload in a child and returns its result and detail lines.
fn child_run(
    args: &RunArgs,
    workload: &str,
    seed: u64,
    traced: bool,
) -> Result<(Value, Value), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.arg("--out").arg(&args.out).arg("--workload").arg(workload);
    cmd.arg("--seed").arg(seed.to_string());
    cmd.arg("--seconds").arg(args.seconds.to_string());
    cmd.arg("--trace").arg(if traced { "1" } else { "0" });
    if args.smoke {
        cmd.arg("--smoke");
    }
    eprintln!("[bench] {workload} seed {seed} trace {}", u8::from(traced));
    let output = cmd.output().map_err(|e| format!("{workload}: spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = stdout.lines().rev();
    let parse = |line: Option<&str>| line.and_then(|l| l.parse::<Value>().ok());
    match (output.status.success(), parse(lines.next()), parse(lines.next())) {
        (true, Some(result), Some(detail)) => Ok((result, detail["detail"].clone())),
        _ => Err(format!(
            "{workload}: run failed ({}): {}",
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        )),
    }
}

fn declared(m: &Metric) -> Map {
    let mut o = Map::new();
    o.insert("unit".into(), json!(m.unit));
    o.insert("better".into(), json!(m.better.as_str()));
    if let Some(bound) = m.bound {
        o.insert("bound".into(), json!(bound));
    }
    o
}

/// A metric's declaration plus the `{n, median, q1, q3}` of `samples`.
fn with_summary(m: &Metric, samples: &[f64]) -> Map {
    let mut o = declared(m);
    if let Value::Object(s) = summary(samples) {
        o.extend(s);
    }
    o
}

fn floats(v: &Value) -> Vec<f64> {
    v.as_array().map(|a| a.iter().filter_map(Value::as_f64).collect()).unwrap_or_default()
}

/// Every workload once untraced and once traced; prints one document.
pub fn full(args: &RunArgs) -> i32 {
    let mut workloads = Map::new();
    let mut correct = true;
    let mut host = Value::Null;
    for (name, why) in WORKLOADS {
        let runs = child_run(args, name, args.seed, false)
            .and_then(|plain| Ok((plain, child_run(args, name, args.seed, true)?)));
        let ((plain, plain_detail), (traced, traced_detail)) = match runs {
            Ok(r) => r,
            Err(e) => {
                eprintln!("edhp-bench: {e}");
                return 1;
            }
        };
        let attempted =
            plain["attempted"].as_u64().unwrap_or(0) + traced["attempted"].as_u64().unwrap_or(0);
        let failed = plain["failed"].as_u64().unwrap_or(0) + traced["failed"].as_u64().unwrap_or(0);
        correct &= failed == 0;

        // End-to-end metrics come from the untraced run only.
        let mut e2e = Map::new();
        for m in end_to_end() {
            let value = plain["metrics"][m.name.as_str()]["value"].as_f64().unwrap_or(0.0);
            let per_rep = floats(&plain_detail["samples"][m.name.as_str()]);
            let samples = if per_rep.is_empty() { vec![value] } else { per_rep };
            e2e.insert(m.name.clone(), Value::Object(with_summary(&m, &samples)));
        }
        let mut layers = Map::new();
        for m in per_layer() {
            let value = traced["metrics"][m.name.as_str()]["value"].as_f64().unwrap_or(0.0);
            let per_rep = floats(&traced_detail["layer_samples"][m.name.as_str()]);
            let samples = if per_rep.is_empty() { vec![value] } else { per_rep };
            layers.insert(m.name.clone(), Value::Object(with_summary(&m, &samples)));
        }
        workloads.insert(
            name.to_string(),
            json!({
                "why": why,
                "attempted": attempted,
                "failed": failed,
                "failed_ops_share": failed as f64 / attempted.max(1) as f64,
                "failures": [plain_detail["failures"].clone(), traced_detail["failures"].clone()],
                "golden_match": plain_detail["golden_match"].clone(),
                "facts": plain_detail["facts"].clone(),
                "end_to_end": e2e,
                "per_layer": layers,
            }),
        );
        host = json!({
            "nproc": plain_detail["nproc"].clone(),
            "threads_effective": plain_detail["threads_effective"].clone(),
            "disk": plain_detail["disk"].clone(),
            "loopback": "every peer is 127.0.0.1: one distinct peer per live log",
        });
    }
    let doc = json!({
        "schema": "edhp-benchmark/1",
        "claim": null,
        "correct": correct,
        "seed": args.seed,
        "smoke": args.smoke,
        "run_seconds": args.seconds,
        "host": host,
        "workloads": workloads,
    });
    println!("{}", serde_json::to_string_pretty(&doc).expect("printable"));
    i32::from(!correct)
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
fn worsening(m: &Metric, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match m.better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

/// Two sets of `runs` untraced runs per workload, seeds `seed..seed+runs`
/// in both — the driver's acceptance procedure.  Prints a markdown table;
/// non-zero exit when a metric's spread or its shift between the sets
/// exceeds its bound (`setup_s` is held to the shift only).
pub fn aa(args: &RunArgs, runs: usize) -> i32 {
    let mut sets: Vec<Vec<Vec<Value>>> = Vec::new();
    for set in 0..2 {
        let mut per_workload = Vec::new();
        for (name, _) in WORKLOADS {
            let mut results = Vec::new();
            for i in 0..runs {
                eprintln!("[bench] A/A set {} run {}/{runs}", ["A", "B"][set], i + 1);
                match child_run(args, name, args.seed + i as u64, false) {
                    Ok((result, _)) if result["correct"].as_bool() == Some(true) => {
                        results.push(result)
                    }
                    Ok((result, _)) => {
                        eprintln!("edhp-bench: {name}: incorrect run: {result}");
                        return 1;
                    }
                    Err(e) => {
                        eprintln!("edhp-bench: {e}");
                        return 1;
                    }
                }
            }
            per_workload.push(results);
        }
        sets.push(per_workload);
    }

    println!(
        "| workload | metric | median A | median B | B worse by | spread A | spread B | bound | |"
    );
    println!("|---|---|---|---|---|---|---|---|---|");
    let mut exceeded = false;
    for (w, (name, _)) in WORKLOADS.iter().enumerate() {
        for m in end_to_end() {
            let values = |set: usize| -> Vec<f64> {
                sets[set][w]
                    .iter()
                    .filter_map(|r| r["metrics"][m.name.as_str()]["value"].as_f64())
                    .collect()
            };
            let (a, b) = (values(0), values(1));
            let bound = m.bound.expect("end-to-end metrics have bounds");
            let shift = worsening(&m, median(&a), median(&b));
            let spreads_ok = m.name == "setup_s" || (spread(&a) <= bound && spread(&b) <= bound);
            let ok = shift <= bound && spreads_ok;
            exceeded |= !ok;
            println!(
                "| {name} | {} | {:.4} {} | {:.4} | {:+.1} % | {:.1} % | {:.1} % | {:.0} % | {} |",
                m.name,
                median(&a),
                m.unit,
                median(&b),
                shift * 100.0,
                spread(&a) * 100.0,
                spread(&b) * 100.0,
                bound * 100.0,
                if ok { "ok" } else { "EXCEEDS" },
            );
        }
    }
    i32::from(exceeded)
}

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.parse::<Value>().map_err(|e| format!("{}: {e}", path.display()))
}

/// Prints one row per (workload, metric) whose medians differ by more
/// than the two documents' combined inter-quartile spread.
pub fn compare(old: &Path, new: &Path) -> i32 {
    let (old, new) = match (load(old), load(new)) {
        (Ok(o), Ok(n)) => (o, n),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("edhp-bench: --compare: {e}");
            return 2;
        }
    };
    println!("| workload | metric | old | new | new ÷ old | combined spread |");
    println!("|---|---|---|---|---|---|");
    let mut rows = 0;
    for (name, _) in WORKLOADS {
        for group in ["end_to_end", "per_layer"] {
            let (Some(o), Some(n)) = (
                old["workloads"][name][group].as_object(),
                new["workloads"][name][group].as_object(),
            ) else {
                continue;
            };
            for (metric, ov) in o {
                let Some(nv) = n.get(metric) else { continue };
                let num = |v: &Value, key: &str| v[key].as_f64().unwrap_or(0.0);
                let (om, nm) = (num(ov, "median"), num(nv, "median"));
                let combined = (num(ov, "q3") - num(ov, "q1")) + (num(nv, "q3") - num(nv, "q1"));
                if (nm - om).abs() <= combined {
                    continue;
                }
                let unit = ov["unit"].as_str().unwrap_or("");
                let ratio = if om == 0.0 { "n/a".to_string() } else { format!("{:.3}", nm / om) };
                println!("| {name} | {metric} | {om:.6} {unit} | {nm:.6} {unit} | {ratio} (base {om:.6} {unit}) | {combined:.6} |");
                rows += 1;
            }
        }
    }
    eprintln!("[bench] {rows} metrics moved by more than the combined spread");
    0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::end_to_end;

    /// The result documents go through `vendor/serde_json`, which is this
    /// repository's code: printer and parser must agree.
    #[test]
    fn documents_round_trip_through_the_json_stand_in() {
        let doc = json!({
            "numbers": [1, 2.5, -3, 1e21, null, true],
            "text": "quote \" backslash \\ newline \n control \u{1} accent é",
            "nested": { "empty_object": {}, "empty_array": [], "pair": (1usize, 2usize) },
            "big": u64::MAX,
        });
        let compact = serde_json::to_string(&doc).unwrap();
        let pretty = serde_json::to_string_pretty(&doc).unwrap();
        assert_eq!(compact.parse::<Value>().unwrap(), doc);
        assert_eq!(pretty.parse::<Value>().unwrap(), doc);
        assert!(pretty.lines().count() > compact.lines().count());

        assert_eq!(doc["numbers"][1].as_f64(), Some(2.5));
        assert_eq!(doc["numbers"][2].as_i64(), Some(-3));
        assert_eq!(doc["big"].as_u64(), Some(u64::MAX));
        assert_eq!(doc["nested"]["pair"][1].as_u64(), Some(2));
        assert!(doc["missing"]["deeper"].is_null());
        for bad in ["{\"a\":}", "[1,]", "1 2", "\"open", "{\"a\" 1}", "nul"] {
            assert!(bad.parse::<Value>().is_err(), "{bad} must not parse");
        }
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        let table = end_to_end();
        let metric = |name: &str| table.iter().find(|m| m.name == name).unwrap();
        assert!((worsening(metric("pipeline_s"), 2.0, 2.5) - 0.25).abs() < 1e-12);
        assert!((worsening(metric("throughput_per_s"), 100.0, 80.0) - 0.2).abs() < 1e-12);
        assert!(worsening(metric("throughput_per_s"), 100.0, 120.0) < 0.0);
    }
}
