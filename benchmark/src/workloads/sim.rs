//! `sim-distributed` and `sim-greedy`: one repetition builds the scenario,
//! simulates it, validates, stores the log through the run cache, indexes
//! it and renders the measurement's figures.

use std::path::PathBuf;
use std::time::Instant;

use edonkey_analysis::LogIndex;
use edonkey_experiments::{figures, scenarios, RunCache};
use edonkey_sim::{run_scenario, EdonkeyWorld, Event, QueueKind, ScenarioConfig, SimOutput};
use honeypot::MeasurementLog;
use netsim::{CalendarQueue, Engine, EventQueue, PendingQueue, TimingWheel};
use serde_json::json;

use super::{md4_of_file, peak_rss_mb, Ctx, Layers, Rep, Workload};
use crate::trace::{QueueTrace, TracedQueue, Tracer, EVENT_KINDS};

/// Monte-Carlo samples per point of the subset figures (the binaries' default).
const SAMPLES: usize = 100;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Which {
    Distributed,
    Greedy,
}

impl Which {
    pub fn config(self, ctx: &Ctx) -> ScenarioConfig {
        match self {
            Which::Distributed => scenarios::distributed(ctx.seed, ctx.sizes().distributed_scale),
            Which::Greedy => scenarios::greedy(ctx.seed, ctx.sizes().greedy_scale),
        }
    }
}

/// Renders the distributed measurement's artefacts (Figs. 2, 4–10).
pub fn render_distributed(
    log: &MeasurementLog,
    ix: &LogIndex,
    ctx: &Ctx,
    tr: &mut Tracer,
) -> Vec<String> {
    let mut texts = vec![
        figures::fig_growth(ix, 2).text,
        figures::fig04(ix).text,
        figures::fig05(ix).text,
        figures::fig06(ix).text,
        figures::fig07(ix).text,
        figures::fig_top_peer(log, ix, 8).text,
        figures::fig_top_peer(log, ix, 9).text,
    ];
    texts.push(tr.span("analysis.subset", |_| figures::fig10(ix, SAMPLES, ctx.seed)).text);
    texts
}

/// Renders the greedy measurement's artefacts (Figs. 3, 11, 12).
pub fn render_greedy(ix: &LogIndex, ctx: &Ctx, tr: &mut Tracer) -> Vec<String> {
    let mut texts = vec![figures::fig_growth(ix, 3).text];
    for fig_no in [11, 12] {
        let a = tr.span("analysis.subset", |_| figures::fig_files(ix, fig_no, SAMPLES, ctx.seed));
        texts.push(a.text);
    }
    texts
}

pub struct Sim {
    which: Which,
    ctx: Ctx,
    cache_dir: PathBuf,
    /// Digest of the first repetition's stored log; every later one must
    /// equal it byte for byte.
    first_md4: Option<String>,
}

impl Sim {
    pub fn new(which: Which, ctx: &Ctx) -> Self {
        Sim { which, ctx: ctx.clone(), cache_dir: ctx.dir.join("run-cache"), first_md4: None }
    }
}

/// `run_scenario` taken apart on a traced queue: the same three steps on
/// the same queue kind, with a span around each and the run loop split by
/// event kind.
fn traced_run(config: ScenarioConfig, tr: &mut Tracer) -> (SimOutput, QueueTrace) {
    fn on<Q: PendingQueue<Event>>(
        config: ScenarioConfig,
        queue: Q,
        qt: &mut QueueTrace,
        tr: &mut Tracer,
    ) -> SimOutput {
        let duration = config.duration;
        let mut engine = Engine::with_queue(TracedQueue::new(queue, qt));
        let mut world = tr.span("sim.world_setup", |_| EdonkeyWorld::new(config, &mut engine));
        tr.span("sim.run", |_| engine.run_until(&mut world, duration));
        let events_handled = engine.events_handled();
        drop(engine);
        let mut out = tr.span("sim.finish", |_| world.finish(duration));
        out.events_handled = events_handled;
        out
    }
    let mut qt = QueueTrace::default();
    let out = match config.queue {
        QueueKind::Heap => on(config, EventQueue::new(), &mut qt, tr),
        QueueKind::Calendar => on(config, CalendarQueue::for_simulation(), &mut qt, tr),
        QueueKind::Wheel => on(config, TimingWheel::for_simulation(), &mut qt, tr),
    };
    qt.close();
    (out, qt)
}

impl Workload for Sim {
    fn rep(&mut self, tr: &mut Tracer) -> Rep {
        let mut rep = Rep { attempted: 1, ..Rep::default() };
        let started = Instant::now();

        let config = tr.span("experiments.scenario_build", |_| self.which.config(&self.ctx));
        let run_started = Instant::now();
        let (out, queue_trace) = if tr.on() {
            let (out, qt) = traced_run(config.clone(), tr);
            (out, Some(qt))
        } else {
            (run_scenario(config.clone()), None)
        };
        rep.hot_s = run_started.elapsed().as_secs_f64();
        rep.work_units = out.events_handled as f64;

        let problems = tr.span("core.validate", |_| out.log.validate());
        let cache = RunCache::new(self.cache_dir.clone());
        let stored = tr.span("core.storage_save", |_| cache.store(&config, &out.log));
        let ix = tr.span("analysis.index_build", |_| LogIndex::build(&out.log));
        let texts = tr.span("experiments.figures", |tr| match self.which {
            Which::Distributed => render_distributed(&out.log, &ix, &self.ctx, tr),
            Which::Greedy => render_greedy(&ix, &self.ctx, tr),
        });
        rep.pipeline_s = started.elapsed().as_secs_f64();
        rep.rss_mb = peak_rss_mb();

        let mut failures = Vec::new();
        if !problems.is_empty() {
            failures.push(format!("validate: {}", problems[0]));
        }
        if ix.recount_distinct_peers() != u64::from(out.log.distinct_peers) {
            failures.push("recount_distinct_peers differs from distinct_peers".to_string());
        }
        if texts.iter().any(String::is_empty) {
            failures.push("an artefact rendered empty".to_string());
        }
        let (md4, bytes) = match &stored {
            Ok(path) => {
                let bytes = std::fs::metadata(path).map_or(0, |m| m.len());
                let md4 = md4_of_file(path).unwrap_or_else(|e| format!("unreadable: {e}"));
                let _ = std::fs::remove_file(path);
                (md4, bytes)
            }
            Err(e) => {
                failures.push(format!("RunCache::store: {e}"));
                (String::new(), 0)
            }
        };
        match &self.first_md4 {
            Some(first) if *first != md4 => {
                failures.push(format!("stored log {md4} differs from first repetition's {first}"))
            }
            Some(_) => {}
            None => self.first_md4 = Some(md4.clone()),
        }
        rep.fail_if_any(failures);

        rep.facts = json!({
            "events": out.events_handled,
            "records": out.log.records.len(),
            "shared_lists": out.log.shared_lists.len(),
            "distinct_peers": out.log.distinct_peers,
            "edhp_md4": md4,
        });
        if let Some(qt) = queue_trace {
            rep.layers = layers(tr, &qt, &out.log, bytes);
        }
        rep
    }
}

fn layers(tr: &Tracer, qt: &QueueTrace, log: &MeasurementLog, storage_bytes: u64) -> Layers {
    let mut l = Layers::new();
    for name in [
        "experiments.scenario_build",
        "sim.world_setup",
        "sim.run",
        "sim.finish",
        "core.validate",
        "core.storage_save",
        "analysis.index_build",
        "analysis.subset",
    ] {
        l.insert(format!("{name}_s"), tr.total_s(name));
    }
    // Rendering without the subset sampling nested inside it.
    l.insert("experiments.figures_s".into(), tr.self_s("experiments.figures"));
    l.insert("netsim.queue_push_count".into(), qt.pushes as f64);
    l.insert("netsim.queue_pop_count".into(), qt.pops as f64);
    l.insert("netsim.queue_peak_len".into(), qt.peak_len as f64);
    l.insert("netsim.queue_self_s".into(), qt.queue.as_secs_f64());
    for (i, kind) in EVENT_KINDS.iter().enumerate() {
        l.insert(format!("sim.events.{kind}"), qt.events[i] as f64);
        l.insert(format!("sim.handler_self_s.{kind}"), qt.handler[i].as_secs_f64());
    }
    l.insert("core.storage_bytes".into(), storage_bytes as f64);
    l.insert("core.records".into(), log.records.len() as f64);
    l.insert("core.shared_lists".into(), log.shared_lists.len() as f64);
    l.insert("core.distinct_peers".into(), f64::from(log.distinct_peers));
    l
}
