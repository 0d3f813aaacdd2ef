//! `edit-loop`: the developer's save hook. Each op applies one seeded,
//! type-preserving edit to the project a previous session left behind,
//! then does what `fearlessc check --cache` does (load the on-disk cache,
//! check, save) and what `fearlessc lint` does (parse, check, analyze).
//!
//! Every op starts from that session's project and cache document, so
//! the cache an op loads has the same size whatever ops ran before it:
//! the work of op `i` is fixed by the seed and `i` alone.

use crate::edit::{EditKind, Project};
use crate::runner::{plan_dir, Plan, Serial};
use crate::stats::{expect_eq, Metrics, Rng};
use crate::trace::Tracer;
use fearless_core::CheckerOptions;
use fearless_incr::{check_units, DiskCache, LoadOutcome};
use fearless_synth::{synthesize, SynthOptions};
use std::path::PathBuf;

/// The project: a fixed synthesized program (the motif prelude adds 61
/// functions to the generated ones). `--seed` drives the edit session, so
/// seeds differ in what is edited, not in the codebase's make-up.
const PROJECT_SEED: u64 = 42;
const GENERATED: usize = 60;
/// The cache a previous session left behind must be at least this big,
/// so the load cost, which grows with the cache, shows.
pub const MIN_CACHE_BYTES: u64 = 200 * 1024;
/// Percent of edits that rename a parameter (seen by callers): a chosen
/// ratio, not one measured from editor traffic.
const RENAME_PERCENT: u64 = 20;

#[derive(Default)]
struct Counters {
    source_bytes: u64,
    cache_bytes: u64,
    hits: u64,
    misses: u64,
    invalidations: u64,
    renames: u64,
    recheck_experiments: u64,
    recheck_hits: u64,
    recheck_misses: u64,
}

/// The workload's state: the previous session's project and cache
/// document, and the cache directory the ops work in.
pub struct EditLoop {
    base: Project,
    base_cache: Vec<u8>,
    dir: PathBuf,
    seed: u64,
    /// The next op's source (the project with its edit applied), its
    /// function count and the kind of edit.
    text: String,
    functions: usize,
    kind: EditKind,
    options: CheckerOptions,
    counters: Counters,
}

fn cache_bytes(dir: &std::path::Path) -> u64 {
    std::fs::metadata(dir.join(fearless_incr::disk::CACHE_FILE)).map_or(0, |m| m.len())
}

impl Serial for EditLoop {
    fn setup(plan: &Plan, round: usize, tracer: &mut Tracer) -> Result<Self, String> {
        let dir = plan_dir(plan, &format!("edit-loop-{round}"))?;
        let mut rng = Rng::new(plan.seed, 2);
        let text = tracer.span("synth", |_| {
            synthesize(&SynthOptions {
                seed: PROJECT_SEED,
                functions: GENERATED,
                ..SynthOptions::default()
            })
        });
        let mut project = Project::new(&text);
        let options = CheckerOptions::default();

        // A previous session: a cold check, then one edit at a time until
        // the cache it leaves behind (stale entries included, as nothing
        // evicts them) reaches MIN_CACHE_BYTES. Its edits are body edits,
        // one cache entry each, so every seed's session stops at the same
        // cache size: the load cost grows faster than the cache.
        let mut cache = DiskCache::load(&dir);
        loop {
            let program = fearless_syntax::parse_program(&project.text())
                .map_err(|e| format!("setup parse: {}", e.message()))?;
            let run = check_units(
                &[(String::new(), program)],
                &options,
                1,
                Some(&mut cache),
                &mut fearless_trace::Tracer::off(),
            );
            if let Some(e) = run.units[0].first_error() {
                return Err(format!("setup check: {e}"));
            }
            if cache.to_json().len() as u64 >= MIN_CACHE_BYTES {
                break;
            }
            project.edit(&mut rng, 0);
        }
        tracer.span("incr.save", |_| cache.save())?;
        let base_cache = std::fs::read(dir.join(fearless_incr::disk::CACHE_FILE))
            .map_err(|e| format!("setup cache: {e}"))?;
        Ok(EditLoop {
            base: project,
            base_cache,
            dir,
            seed: plan.seed,
            text: String::new(),
            functions: 0,
            kind: EditKind::Body,
            options,
            counters: Counters::default(),
        })
    }

    fn prepare(&mut self, op: u64) -> Result<(), String> {
        std::fs::write(
            self.dir.join(fearless_incr::disk::CACHE_FILE),
            &self.base_cache,
        )
        .map_err(|e| format!("restore cache: {e}"))?;
        let mut project = self.base.clone();
        self.kind = project.edit(&mut Rng::new(self.seed, 1 << 32 | op), RENAME_PERCENT);
        self.text = project.text();
        self.functions = project.functions();
        Ok(())
    }

    fn op(&mut self, _op: u64, tracer: &mut Tracer) -> Result<(), String> {
        let (kind, text, functions) = (self.kind, &self.text, self.functions);
        let options = self.options;

        // `fearlessc check --cache <dir>`.
        let mut cache = tracer.span("incr.load", |_| DiskCache::load(&self.dir));
        expect_eq("cache load", LoadOutcome::Warm, cache.load_outcome())?;
        let program = tracer
            .span("syntax.parse", |_| fearless_syntax::parse_program(text))
            .map_err(|e| format!("parse: {}", e.message()))?;
        let run = tracer.span("incr.check_units", |_| {
            check_units(
                &[(String::new(), program)],
                &options,
                1,
                Some(&mut cache),
                &mut fearless_trace::Tracer::off(),
            )
        });
        if let Some(e) = run.units[0].first_error() {
            return Err(format!("check: {e}"));
        }
        expect_eq("functions checked", functions, run.units[0].functions.len())?;
        tracer.span("incr.save", |_| cache.save())?;

        // `fearlessc lint`.
        let report = tracer.span("lint", |t| {
            let program = t
                .span("syntax.parse", |_| fearless_syntax::parse_program(text))
                .map_err(|e| format!("lint parse: {}", e.message()))?;
            let checked = t
                .span("core.check", |_| {
                    fearless_core::check_program(&program, &options)
                })
                .map_err(|e| format!("lint check: {e}"))?;
            t.span("analysis", |_| fearless_analyze::analyze_program(&checked))
                .map_err(|e| format!("lint analysis: {e}"))
        })?;
        expect_eq("functions analyzed", functions, report.stats.functions)?;

        let c = &mut self.counters;
        c.source_bytes += text.len() as u64;
        c.cache_bytes += cache_bytes(&self.dir);
        c.hits += run.stats.hits;
        c.misses += run.stats.misses;
        c.invalidations += run.stats.invalidations;
        c.renames += u64::from(kind == EditKind::Rename);
        c.recheck_experiments += report.stats.recheck_experiments as u64;
        c.recheck_hits += report.stats.recheck_cache_hits;
        c.recheck_misses += report.stats.recheck_cache_misses;
        Ok(())
    }

    fn layer_metrics(&self, ops: u64, m: &mut Metrics) {
        let per_op = |v: u64| v as f64 / ops.max(1) as f64;
        let c = &self.counters;
        m.set("syntax.source_kb", per_op(c.source_bytes) / 1024.0, "KiB");
        m.set("incr.cache_kb", per_op(c.cache_bytes) / 1024.0, "KiB");
        m.set("incr.hits", per_op(c.hits), "count");
        m.set("incr.misses", per_op(c.misses), "count");
        m.set("incr.invalidations", per_op(c.invalidations), "count");
        m.set(
            "incr.hit_ratio",
            c.hits as f64 / (c.hits + c.misses).max(1) as f64,
            "share",
        );
        m.set("incr.rename_edit_share", per_op(c.renames), "share");
        m.set(
            "analysis.recheck_experiments",
            per_op(c.recheck_experiments),
            "count",
        );
        m.set(
            "analysis.recheck_cache_hits",
            per_op(c.recheck_hits),
            "count",
        );
        m.set(
            "analysis.recheck_cache_misses",
            per_op(c.recheck_misses),
            "count",
        );
    }

    fn reset_counters(&mut self) {
        self.counters = Counters::default();
    }
}
