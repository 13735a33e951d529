//! The repository's benchmark harness.  `benchmark/run.sh` builds it
//! offline and passes its arguments through:
//!
//! ```text
//! run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]   one run, one result line
//! run.sh [--smoke]                       every workload untraced and traced, one document
//! run.sh --aa [RUNS]                     two sets of runs of this commit against the bounds
//! run.sh --compare OLD.json NEW.json     metrics that moved by more than the combined spread
//! ```
//!
//! See README.md for what each workload and metric means.

mod chunks;
mod metrics;
mod report;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::time::Instant;

use edonkey_experiments::scenarios::DEFAULT_SEED;
use serde_json::{json, Map, Value};

use metrics::{end_to_end, per_layer, RUN_SECONDS, WORKLOADS};
use stats::median;
use trace::Tracer;
use workloads::{Ctx, Rep};

/// A run that has not finished its repetitions by then stops measuring,
/// so that no run outlives the driver's 180 s limit.
const RUN_HARD_STOP_S: f64 = 120.0;

pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub smoke: bool,
    pub out: PathBuf,
}

/// Removes the run's scratch directory however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The filesystem type holding `dir`, from the longest matching mount point.
fn disk_of(dir: &Path) -> String {
    let dir = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, point, fs) = (f.next()?, f.next()?, f.next()?);
            dir.starts_with(point).then(|| (point.len(), fs.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs)
}

fn golden_match(args: &RunArgs, facts: &Value) -> Value {
    let golden: Value = include_str!("../golden.json").parse().expect("golden.json is valid JSON");
    match golden["workloads"].get(&args.workload) {
        Some(expected) if !args.smoke && golden["seed"].as_u64() == Some(args.seed) => {
            json!(expected == facts)
        }
        _ => Value::Null,
    }
}

/// One run of one workload: set-up (with a warm-up repetition), then
/// timed repetitions for `seconds`.  Returns the result line and the
/// detail line.
fn run_one(args: &RunArgs) -> Result<(Value, Value), String> {
    let scratch = Scratch(args.out.join(format!("run-{}", std::process::id())));
    std::fs::create_dir_all(&scratch.0).map_err(|e| format!("{}: {e}", scratch.0.display()))?;
    let ctx = Ctx { seed: args.seed, smoke: args.smoke, dir: scratch.0.clone() };

    let started = Instant::now();
    let mut workload = workloads::build(&args.workload, &ctx).map_err(|e| e.to_string())?;
    let build_s = started.elapsed().as_secs_f64();
    // Warm-up belongs to set-up: it fills the allocator, the page cache
    // and every lazy table, and the first one's memory peak is the
    // workload's own (later checks only add to `VmHWM`).
    let mut warm_ups: Vec<(f64, Rep)> = Vec::new();
    for _ in 0..workload.warm_ups() {
        let t = Instant::now();
        let rep = workload.rep(&mut Tracer::new(false));
        warm_ups.push((t.elapsed().as_secs_f64(), rep));
    }
    let warm_up_s: Vec<f64> = warm_ups.iter().map(|(s, _)| *s).collect();
    let setup_s = build_s + median(&warm_up_s);
    let first = &warm_ups[0].1;
    let peak_rss_mb = first.rss_mb;

    // A traced run alternates untraced and traced repetitions, so the
    // tracing overhead is a ratio of medians taken under the same load.
    let min_reps = match (args.smoke, args.traced) {
        (true, _) => 2,
        (false, false) => 3,
        (false, true) => 4,
    };
    let mut plain: Vec<Rep> = Vec::new();
    let mut traced: Vec<Rep> = Vec::new();
    let mut last_trace = Value::Null;
    let measuring = Instant::now();
    while plain.len() + traced.len() < min_reps || measuring.elapsed().as_secs_f64() < args.seconds
    {
        if started.elapsed().as_secs_f64() > RUN_HARD_STOP_S {
            break;
        }
        let trace_this = args.traced && (plain.len() + traced.len()) % 2 == 1;
        let mut tr = Tracer::new(trace_this);
        let rep = workload.rep(&mut tr);
        if trace_this {
            last_trace = tr.to_json();
            traced.push(rep);
        } else {
            plain.push(rep);
        }
    }

    let all = || warm_ups.iter().map(|(_, r)| r).chain(&plain).chain(&traced);
    let attempted: u64 = all().map(|r| r.attempted).sum();
    let failed: u64 = all().map(|r| r.failed).sum();
    let failures: Vec<&String> = all().flat_map(|r| &r.failures).collect();
    let pipeline: Vec<f64> = plain.iter().map(|r| r.pipeline_s).collect();
    let throughput: Vec<f64> =
        plain.iter().filter(|r| r.hot_s > 0.0).map(|r| r.work_units / r.hot_s).collect();
    let pipeline_traced: Vec<f64> = traced.iter().map(|r| r.pipeline_s).collect();

    let mut out = Map::new();
    let mut layer_samples = Map::new();
    let mut put = |name: &str, unit: &str, value: f64| {
        out.insert(name.to_string(), json!({ "value": value, "unit": unit }));
    };
    if args.traced {
        let mut pooled = workloads::Layers::new();
        workload.pooled_layers(&mut pooled);
        if median(&pipeline) > 0.0 {
            pooled.insert(
                "trace_overhead_share".into(),
                median(&pipeline_traced) / median(&pipeline) - 1.0,
            );
        }
        for m in per_layer() {
            let samples: Vec<f64> =
                traced.iter().filter_map(|r| r.layers.get(&m.name).copied()).collect();
            put(&m.name, m.unit, pooled.get(&m.name).copied().unwrap_or_else(|| median(&samples)));
            if !samples.is_empty() {
                layer_samples.insert(m.name, json!(samples));
            }
        }
        let trace_file = args.out.join(format!("trace-{}.json", args.workload));
        let text = serde_json::to_string_pretty(&last_trace).expect("printable");
        std::fs::write(&trace_file, text).map_err(|e| format!("{}: {e}", trace_file.display()))?;
    } else {
        for m in end_to_end() {
            let value = match m.name.as_str() {
                "pipeline_s" => median(&pipeline),
                "throughput_per_s" => median(&throughput),
                "peak_rss_mb" => peak_rss_mb,
                "setup_s" => setup_s,
                other => unreachable!("end-to-end metric {other} has no source"),
            };
            put(&m.name, m.unit, value);
        }
    }

    let result = json!({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": out,
    });
    let detail = json!({
        "workload": args.workload,
        "seed": args.seed,
        "smoke": args.smoke,
        "traced": args.traced,
        "seconds": args.seconds,
        "samples": {
            "pipeline_s": pipeline,
            "throughput_per_s": throughput,
            "pipeline_s_traced": pipeline_traced,
        },
        "layer_samples": layer_samples,
        "facts": first.facts,
        "golden_match": golden_match(args, &first.facts),
        "failures": failures,
        "disk": disk_of(&scratch.0),
        "threads_effective": rayon::current_num_threads(),
        "nproc": std::thread::available_parallelism().map_or(1, |n| n.get()),
    });
    Ok((result, detail))
}

fn usage(problem: &str) -> ! {
    eprintln!("edhp-bench: {problem}");
    eprintln!(
        "usage: run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]\n\
         \x20      run.sh [--smoke] | --aa [RUNS] | --compare OLD.json NEW.json\n\
         workloads: {}",
        WORKLOADS.map(|(n, _)| n).join(", ")
    );
    std::process::exit(2);
}

fn main() {
    let mut args = RunArgs {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        traced: false,
        smoke: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut aa: Option<usize> = None;
    let mut compare: Option<(PathBuf, PathBuf)> = None;
    let mut store_logs: Option<PathBuf> = None;

    let mut argv = std::env::args().skip(1).peekable();
    while let Some(flag) = argv.next() {
        let mut value =
            |what: &str| argv.next().unwrap_or_else(|| usage(&format!("{flag} needs {what}")));
        match flag.as_str() {
            "--workload" => args.workload = value("a name"),
            "--seed" => {
                args.seed = value("a number")
                    .parse()
                    .unwrap_or_else(|_| usage("--seed takes a whole number"));
            }
            "--seconds" => {
                args.seconds =
                    value("a number").parse().unwrap_or_else(|_| usage("--seconds takes a number"));
            }
            "--trace" => {
                args.traced = match value("0 or 1").as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                };
            }
            "--out" => args.out = PathBuf::from(value("a directory")),
            "--smoke" => args.smoke = true,
            "--aa" => {
                let runs = argv.next_if(|v| !v.starts_with("--")).map(|v| {
                    v.parse()
                        .ok()
                        .filter(|&n: &usize| n >= 2)
                        .unwrap_or_else(|| usage("--aa takes a run count of at least 2"))
                });
                aa = Some(runs.unwrap_or(3));
            }
            "--compare" => {
                compare = Some((PathBuf::from(value("OLD.json")), PathBuf::from(value("NEW.json"))))
            }
            "--store-logs" => store_logs = Some(PathBuf::from(value("a directory"))),
            other => usage(&format!("unknown argument {other}")),
        }
    }

    let code = if let Some(dir) = store_logs {
        let ctx = Ctx { seed: args.seed, smoke: args.smoke, dir };
        match workloads::analyse::store_logs(&ctx) {
            Ok(()) => 0,
            Err(e) => {
                eprintln!("edhp-bench: --store-logs: {e}");
                1
            }
        }
    } else if let Some((old, new)) = compare {
        report::compare(&old, &new)
    } else if let Some(runs) = aa {
        report::aa(&args, runs)
    } else if args.workload.is_empty() {
        report::full(&args)
    } else {
        if args.smoke {
            args.seconds = args.seconds.min(1.0);
        }
        match run_one(&args) {
            Ok((result, detail)) => {
                println!("{}", json!({ "detail": detail }));
                println!("{result}");
                0
            }
            Err(e) => {
                eprintln!("edhp-bench: {}: {e}", args.workload);
                1
            }
        }
    };
    std::process::exit(code);
}
