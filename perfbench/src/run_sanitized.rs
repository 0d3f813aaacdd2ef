//! `run-sanitized`: each op runs one corpus concurrent program under a
//! seeded random schedule, with dynamic reservation checks and the
//! domination sanitizer amortized by flow facts.

use crate::runner::{Plan, Serial};
use crate::stats::{expect_eq, Metrics, Rng};
use crate::trace::Tracer;
use fearless_runtime::{compile, FlowIndex, Machine, MachineConfig, Value};
use fearless_syntax::Program;

/// The corpus programs an op can run, with their closed-form answers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scenario {
    /// `producer(n)` → `consumer(n)`.
    Pipeline,
    /// `producer(n)` → `relay(n)` → `packet_consumer(n)`.
    Relay,
    /// `batch_producer(b, per)` → `batch_consumer(b)`.
    Worklist,
}

/// One op's input: the scenario, its size and the schedule seed.
#[derive(Clone, Copy, Debug)]
pub struct RunInput {
    /// Which program.
    pub scenario: Scenario,
    /// Payloads (pipeline, relay) or batches (worklist).
    pub n: i64,
    /// List length per batch (worklist only).
    pub per: i64,
    /// Seed of the random schedule.
    pub schedule_seed: u64,
}

impl RunInput {
    /// Spawns, in order, and the thread whose result is the answer.
    fn spawns(&self) -> (Vec<(&'static str, Vec<i64>)>, usize) {
        let n = self.n;
        match self.scenario {
            Scenario::Pipeline => (vec![("producer", vec![n]), ("consumer", vec![n])], 1),
            Scenario::Relay => (
                vec![
                    ("producer", vec![n]),
                    ("relay", vec![n]),
                    ("packet_consumer", vec![n]),
                ],
                2,
            ),
            Scenario::Worklist => (
                vec![
                    ("batch_producer", vec![n, self.per]),
                    ("batch_consumer", vec![n]),
                ],
                1,
            ),
        }
    }

    /// The known answer: the sum of every payload sent.
    pub fn expected(&self) -> i64 {
        match self.scenario {
            Scenario::Pipeline | Scenario::Relay => self.n * (self.n + 1) / 2,
            Scenario::Worklist => self.n * self.per * (self.per + 1) / 2,
        }
    }
}

/// A parsed program and its flow index (computed once, in setup).
pub struct Loaded {
    program: Program,
    index: FlowIndex,
}

impl Loaded {
    /// Parses, compiles and flow-analyzes `source`.
    pub fn new(source: &str, tracer: &mut Tracer) -> Result<Loaded, String> {
        let program = tracer
            .span("syntax.parse", |_| fearless_syntax::parse_program(source))
            .map_err(|e| format!("parse: {}", e.message()))?;
        let compiled = tracer
            .span("runtime.compile", |_| compile(&program))
            .map_err(|e| format!("compile: {e}"))?;
        let index = tracer.span("flow", |_| {
            fearless_flow::analyze_compiled(&compiled).index()
        });
        Ok(Loaded { program, index })
    }
}

/// Machine counters summed over the timed phase.
#[derive(Default)]
pub struct Counters {
    steps: u64,
    reservation_checks: u64,
    sanitize_walks: u64,
    sanitize_partial_walks: u64,
    sanitize_skipped: u64,
}

/// Runs one op: compile, install flow facts, spawn, run, and check the
/// result against `expected` (normally [`RunInput::expected`]) with zero
/// reservation failures. A sanitizer violation aborts the run with an
/// error, which fails the op.
pub fn run_op(
    loaded: &Loaded,
    input: &RunInput,
    expected: i64,
    counters: &mut Counters,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let mut machine = tracer
        .span("runtime.compile", |_| {
            let compiled = compile(&loaded.program)?;
            let mut m = Machine::from_compiled(
                compiled,
                MachineConfig {
                    check_reservations: true,
                    random_schedule: true,
                    seed: input.schedule_seed,
                    sanitize_domination: true,
                    ..MachineConfig::default()
                },
            );
            m.set_flow_index(loaded.index.clone());
            Ok::<_, fearless_core::TypeError>(m)
        })
        .map_err(|e| format!("compile: {e}"))?;
    let (spawns, answer_thread) = input.spawns();
    tracer
        .span("runtime.run", |_| {
            for (func, args) in &spawns {
                machine.spawn(func, args.iter().map(|a| Value::Int(*a)).collect())?;
            }
            machine.run()
        })
        .map_err(|e| format!("{:?} run: {e}", input.scenario))?;
    let stats = *machine.stats();
    let result = match machine.thread(answer_thread).result() {
        Some(Value::Int(v)) => *v,
        other => {
            return Err(format!(
                "{:?}: no integer result ({other:?})",
                input.scenario
            ))
        }
    };
    expect_eq(&format!("{:?} result", input.scenario), expected, result)?;
    expect_eq("reservation failures", 0, stats.reservation_failures)?;
    counters.steps += stats.steps;
    counters.reservation_checks += stats.reservation_checks;
    counters.sanitize_walks += stats.sanitize_walks;
    counters.sanitize_partial_walks += stats.sanitize_partial_walks;
    counters.sanitize_skipped += stats.sanitize_skipped;
    Ok(())
}

/// The workload's state.
pub struct RunSanitized {
    pipeline: Loaded,
    worklist: Loaded,
    rng: Rng,
    counters: Counters,
}

impl RunSanitized {
    /// The input of op `op`: the scenarios take turns; sizes and the
    /// schedule come from the seed. The size ranges give each scenario
    /// runs of roughly 10 to 30 ms, so the per-op CPU distribution has no
    /// gap for its median to fall into.
    fn input(&mut self, op: u64) -> RunInput {
        let rng = &mut self.rng;
        let scenario = match op % 3 {
            0 => Scenario::Pipeline,
            1 => Scenario::Relay,
            _ => Scenario::Worklist,
        };
        let (n, per) = match scenario {
            Scenario::Pipeline => (rng.range(40, 60) as i64, 0),
            Scenario::Relay => (rng.range(3000, 8000) as i64, 0),
            Scenario::Worklist => (rng.range(7, 10) as i64, rng.range(10, 14) as i64),
        };
        RunInput {
            scenario,
            n,
            per,
            schedule_seed: rng.next_u64(),
        }
    }
}

impl Serial for RunSanitized {
    fn setup(plan: &Plan, _round: usize, tracer: &mut Tracer) -> Result<Self, String> {
        Ok(RunSanitized {
            pipeline: Loaded::new(&fearless_corpus::msg::pipeline_entry().source, tracer)?,
            worklist: Loaded::new(&fearless_corpus::msg::worklist_entry().source, tracer)?,
            rng: Rng::new(plan.seed, 4),
            counters: Counters::default(),
        })
    }

    fn op(&mut self, op: u64, tracer: &mut Tracer) -> Result<(), String> {
        let input = self.input(op);
        let loaded = match input.scenario {
            Scenario::Pipeline | Scenario::Relay => &self.pipeline,
            Scenario::Worklist => &self.worklist,
        };
        run_op(loaded, &input, input.expected(), &mut self.counters, tracer)
    }

    fn layer_metrics(&self, ops: u64, m: &mut Metrics) {
        let per_op = |v: u64| v as f64 / ops.max(1) as f64;
        let c = &self.counters;
        m.set("runtime.steps", per_op(c.steps), "count");
        m.set(
            "runtime.reservation_checks",
            per_op(c.reservation_checks),
            "count",
        );
        m.set("runtime.sanitize_walks", per_op(c.sanitize_walks), "count");
        m.set(
            "runtime.sanitize_partial_walks",
            per_op(c.sanitize_partial_walks),
            "count",
        );
        m.set(
            "runtime.sanitize_skipped",
            per_op(c.sanitize_skipped),
            "count",
        );
        m.set(
            "runtime.skip_ratio",
            c.sanitize_skipped as f64 / c.steps.max(1) as f64,
            "share",
        );
    }

    fn reset_counters(&mut self) {
        self.counters = Counters::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Tally;

    #[test]
    fn a_wrong_expected_verdict_is_counted_as_a_failure() {
        let mut tracer = Tracer::new(false, 0);
        let loaded = Loaded::new(&fearless_corpus::msg::pipeline_entry().source, &mut tracer)
            .expect("corpus pipeline loads");
        let input = RunInput {
            scenario: Scenario::Pipeline,
            n: 20,
            per: 0,
            schedule_seed: 7,
        };
        let mut counters = Counters::default();
        let mut tally = Tally::default();
        tally.record(run_op(
            &loaded,
            &input,
            input.expected(),
            &mut counters,
            &mut tracer,
        ));
        tally.record(run_op(
            &loaded,
            &input,
            input.expected() + 1,
            &mut counters,
            &mut tracer,
        ));
        assert_eq!(tally.attempted, 2);
        assert_eq!(tally.failed, 1);
        assert!(tally
            .first_failure
            .unwrap()
            .contains("expected 211, got 210"));
    }

    #[test]
    fn every_scenario_meets_its_closed_form() {
        let mut tracer = Tracer::new(false, 0);
        let pipeline =
            Loaded::new(&fearless_corpus::msg::pipeline_entry().source, &mut tracer).unwrap();
        let worklist =
            Loaded::new(&fearless_corpus::msg::worklist_entry().source, &mut tracer).unwrap();
        for (scenario, loaded) in [
            (Scenario::Pipeline, &pipeline),
            (Scenario::Relay, &pipeline),
            (Scenario::Worklist, &worklist),
        ] {
            let input = RunInput {
                scenario,
                n: 9,
                per: 5,
                schedule_seed: 3,
            };
            let mut counters = Counters::default();
            run_op(loaded, &input, input.expected(), &mut counters, &mut tracer)
                .unwrap_or_else(|e| panic!("{scenario:?}: {e}"));
            assert!(counters.reservation_checks > 0);
        }
    }
}
