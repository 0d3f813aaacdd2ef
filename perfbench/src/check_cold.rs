//! `check-cold`: the CI-style verdict on new code. Each op takes a fresh
//! synthesized program through parse → `Globals` → fingerprints → check
//! → verify → flow, with no cache anywhere.
//!
//! The check step calls `check::check_fn` per function on one thread,
//! not `fearless_incr::check_units` as `fearlessc check` does: the
//! verifier and the flow analysis need the derivations, which
//! `check_units` drops, and `check_units` builds `Globals` and the
//! fingerprints inside, where they could not be timed as layers of
//! their own. `check_units`, with its scheduler, runs on `edit-loop`,
//! over that workload's few cache misses.

use crate::runner::{Plan, Serial};
use crate::stats::{expect_eq, Metrics, Rng};
use crate::trace::Tracer;
use fearless_core::{check, fn_fingerprint, CheckedProgram, CheckerOptions, Globals};
use fearless_synth::{synthesize, SynthOptions};

/// Programs in the pool; ops cycle through all of them in a seeded order.
const POOL: usize = 12;
/// Generated-function counts span this range, evenly.
const MIN_FUNCTIONS: usize = 200;
const MAX_FUNCTIONS: usize = 1000;

struct Source {
    text: String,
    functions: usize,
}

/// Per-op work counters, summed over the timed phase.
#[derive(Default)]
struct Counters {
    source_bytes: u64,
    deriv_nodes: u64,
    vir_steps: u64,
    rule_nodes: u64,
    safe_steps: u64,
    unknown_steps: u64,
}

/// The workload's state: the program pool and the visiting order.
pub struct CheckCold {
    pool: Vec<Source>,
    order: Vec<usize>,
    options: CheckerOptions,
    counters: Counters,
}

impl Serial for CheckCold {
    fn setup(plan: &Plan, _round: usize, tracer: &mut Tracer) -> Result<Self, String> {
        let mut rng = Rng::new(plan.seed, 1);
        let pool = tracer.span("synth", |_| {
            (0..POOL)
                .map(|k| {
                    let generated =
                        MIN_FUNCTIONS + k * (MAX_FUNCTIONS - MIN_FUNCTIONS) / (POOL - 1);
                    let text = synthesize(&SynthOptions {
                        seed: rng.next_u64(),
                        functions: generated,
                        ..SynthOptions::default()
                    });
                    let functions = text.lines().filter(|l| l.starts_with("def ")).count();
                    Source { text, functions }
                })
                .collect::<Vec<_>>()
        });
        // A seeded permutation: every program is visited once per cycle.
        let mut order: Vec<usize> = (0..POOL).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.range(0, i as u64) as usize);
        }
        Ok(CheckCold {
            pool,
            order,
            options: CheckerOptions::default(),
            counters: Counters::default(),
        })
    }

    fn op(&mut self, op: u64, tracer: &mut Tracer) -> Result<(), String> {
        let src = &self.pool[self.order[op as usize % POOL]];
        let options = self.options;
        let program = tracer
            .span("syntax.parse", |_| {
                fearless_syntax::parse_program(&src.text)
            })
            .map_err(|e| format!("parse: {}", e.message()))?;
        let globals = tracer
            .span("core.globals", |_| Globals::build(&program, options.mode))
            .map_err(|e| format!("globals: {e}"))?;
        let fingerprints = tracer.span("core.fingerprint", |_| {
            program
                .funcs
                .iter()
                .map(|f| fn_fingerprint(&globals, &options, f))
                .collect::<Vec<_>>()
        });
        let derivations = tracer
            .span("core.check", |_| {
                program
                    .funcs
                    .iter()
                    .map(|f| {
                        check::check_fn(&globals, &options, f)
                            .map_err(|e| e.in_func(f.name.as_str()))
                    })
                    .collect::<Result<Vec<_>, _>>()
            })
            .map_err(|e| format!("check: {e}"))?;
        let checked = CheckedProgram {
            program,
            derivations,
            options,
        };
        let verified = tracer
            .span("verify", |_| fearless_verify::verify_program(&checked))
            .map_err(|e| format!("verify: {e}"))?;
        let flow = tracer
            .span("flow", |_| fearless_flow::analyze_checked(&checked))
            .map_err(|e| format!("flow: {e}"))?;

        expect_eq(
            "functions checked",
            src.functions,
            checked.derivations.len(),
        )?;
        expect_eq("functions verified", src.functions, verified.functions)?;
        let (safe, _, unknown) = flow.counts();
        let c = &mut self.counters;
        c.source_bytes += src.text.len() as u64;
        c.deriv_nodes += checked.total_nodes() as u64;
        c.vir_steps += checked.total_vir_steps() as u64;
        c.rule_nodes += verified.rule_nodes as u64;
        c.safe_steps += safe as u64;
        c.unknown_steps += unknown as u64;
        // Freeing the derivations is part of what a check costs.
        tracer.span("core.free", |_| {
            drop((checked, globals, fingerprints, flow))
        });
        Ok(())
    }

    fn layer_metrics(&self, ops: u64, m: &mut Metrics) {
        let per_op = |v: u64| v as f64 / ops.max(1) as f64;
        let c = &self.counters;
        m.set("syntax.source_kb", per_op(c.source_bytes) / 1024.0, "KiB");
        m.set("core.deriv_nodes", per_op(c.deriv_nodes), "count");
        m.set("core.vir_steps", per_op(c.vir_steps), "count");
        m.set("verify.rule_nodes", per_op(c.rule_nodes), "count");
        m.set("flow.safe_steps", per_op(c.safe_steps), "count");
        m.set("flow.unknown_steps", per_op(c.unknown_steps), "count");
    }

    fn reset_counters(&mut self) {
        self.counters = Counters::default();
    }
}
