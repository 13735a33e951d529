//! `analyse-saved`: both measurements are simulated and stored once, in a
//! child process, during set-up; one pass then loads both logs from the
//! run cache, validates and indexes them and renders all twelve
//! artefacts — the path `all` takes on a cache hit.

use std::time::Instant;

use edonkey_analysis::LogIndex;
use edonkey_experiments::{figures, RunCache};
use edonkey_sim::{run_scenario, ScenarioConfig};
use serde_json::json;

use super::sim::{render_distributed, render_greedy, Which};
use super::{dir_bytes, md4_of_text, peak_rss_mb, Ctx, Layers, Rep, Workload};
use crate::trace::Tracer;

pub struct Analyse {
    ctx: Ctx,
    cache: RunCache,
    distributed: ScenarioConfig,
    greedy: ScenarioConfig,
    storage_bytes: u64,
    /// Digest of the first pass's artefact texts; later passes must match.
    first_md4: Option<String>,
}

/// The set-up child (`--store-logs`): simulates both measurements and
/// stores them through the run cache under `ctx.dir`.  It is a process of
/// its own so the simulations' memory stays out of this workload's peak.
pub fn store_logs(ctx: &Ctx) -> Result<(), String> {
    let cache = RunCache::new(ctx.dir.clone());
    for which in [Which::Distributed, Which::Greedy] {
        let config = which.config(ctx);
        let out = run_scenario(config.clone());
        if let Some(problem) = out.log.validate().first() {
            return Err(format!("{which:?}: {problem}"));
        }
        cache.store(&config, &out.log).map_err(|e| format!("{which:?}: store: {e}"))?;
    }
    Ok(())
}

impl Analyse {
    pub fn new(ctx: &Ctx) -> std::io::Result<Self> {
        let dir = ctx.dir.join("run-cache");
        let mut child = std::process::Command::new(std::env::current_exe()?);
        child.arg("--store-logs").arg(&dir).arg("--seed").arg(ctx.seed.to_string());
        if ctx.smoke {
            child.arg("--smoke");
        }
        let status = child.status()?;
        if !status.success() {
            return Err(std::io::Error::other(format!("set-up child failed: {status}")));
        }
        Ok(Analyse {
            ctx: ctx.clone(),
            cache: RunCache::new(dir.clone()),
            distributed: Which::Distributed.config(ctx),
            greedy: Which::Greedy.config(ctx),
            storage_bytes: dir_bytes(&dir),
            first_md4: None,
        })
    }
}

impl Workload for Analyse {
    fn rep(&mut self, tr: &mut Tracer) -> Rep {
        let mut rep = Rep { attempted: 1, ..Rep::default() };
        let started = Instant::now();

        let (dist, greedy) = tr.span("core.storage_load", |_| {
            (self.cache.load(&self.distributed), self.cache.load(&self.greedy))
        });
        let (Some(dist), Some(greedy)) = (dist, greedy) else {
            rep.fail("RunCache::load missed a log the set-up stored");
            return rep;
        };
        let problems = tr.span("core.validate", |_| {
            let mut p = dist.validate();
            p.extend(greedy.validate());
            p
        });
        let (dist_ix, greedy_ix) =
            tr.span("analysis.index_build", |_| (LogIndex::build(&dist), LogIndex::build(&greedy)));
        let texts = tr.span("experiments.figures", |tr| {
            let mut texts = vec![figures::table1(&dist, &greedy).text];
            texts.extend(render_distributed(&dist, &dist_ix, &self.ctx, tr));
            texts.extend(render_greedy(&greedy_ix, &self.ctx, tr));
            texts
        });
        rep.pipeline_s = started.elapsed().as_secs_f64();
        rep.hot_s = rep.pipeline_s;
        rep.work_units = (dist.records.len() + greedy.records.len()) as f64;
        rep.rss_mb = peak_rss_mb();

        let mut failures = Vec::new();
        if !problems.is_empty() {
            failures.push(format!("validate: {}", problems[0]));
        }
        if dist_ix.recount_distinct_peers() != u64::from(dist.distinct_peers)
            || greedy_ix.recount_distinct_peers() != u64::from(greedy.distinct_peers)
        {
            failures.push("recount_distinct_peers differs from distinct_peers".to_string());
        }
        if texts.len() != 12 || texts.iter().any(String::is_empty) {
            failures.push(format!("{} artefacts rendered, some empty", texts.len()));
        }
        let md4 = md4_of_text(&texts);
        match &self.first_md4 {
            Some(first) if *first != md4 => {
                failures.push(format!("artefact text {md4} differs from first pass's {first}"))
            }
            Some(_) => {}
            None => self.first_md4 = Some(md4.clone()),
        }
        rep.fail_if_any(failures);

        let records = dist.records.len() + greedy.records.len();
        let shared_lists = dist.shared_lists.len() + greedy.shared_lists.len();
        rep.facts =
            json!({ "records": records, "shared_lists": shared_lists, "artefacts_md4": md4 });
        if tr.on() {
            let mut l = Layers::new();
            for name in
                ["core.storage_load", "core.validate", "analysis.index_build", "analysis.subset"]
            {
                l.insert(format!("{name}_s"), tr.total_s(name));
            }
            l.insert("experiments.figures_s".into(), tr.self_s("experiments.figures"));
            l.insert("core.storage_bytes".into(), self.storage_bytes as f64);
            l.insert("core.records".into(), records as f64);
            l.insert("core.shared_lists".into(), shared_lists as f64);
            l.insert(
                "core.distinct_peers".into(),
                f64::from(dist.distinct_peers) + f64::from(greedy.distinct_peers),
            );
            rep.layers = l;
        }
        rep
    }
}
