//! The measurement harness shared by every workload: repeated setup, the
//! timed phase of a serial workload, and the reduction of a phase to the
//! end-to-end, per-layer and diagnostic metrics.

use crate::clock::{self, Mark};
use crate::stats::{mean, quantile, Metrics, Tally};
use crate::trace::{Span, Summary, Tracer};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Duration;

/// Setup runs at least [`Plan::min_setups`] times in one process, and
/// more while the repetitions so far took under [`SETUP_BUDGET_NS`] of
/// wall time; `setup_s` is the median.
const MAX_SETUPS: usize = 100;
const SETUP_BUDGET_NS: u64 = 2_000_000_000;

/// A run's shape, from the command line and the workload.
#[derive(Clone, Debug)]
pub struct Plan {
    /// Workload seed.
    pub seed: u64,
    /// Minimum length of the timed phase, seconds.
    pub seconds: f64,
    /// Minimum ops in the timed phase (the tail needs ten beyond it).
    pub min_ops: u64,
    /// Untimed ops run after setup, before the timed phase.
    pub warmup: u64,
    /// The quantile reported as `cpu_ms_tail`.
    pub tail: f64,
    /// Setup repetitions at least (at least 1); `setup_s` is their median.
    pub min_setups: usize,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Scratch directory for caches, sockets and traces.
    pub work_dir: PathBuf,
}

/// Creates an empty scratch directory `name` under the work dir.
pub fn plan_dir(plan: &Plan, name: &str) -> Result<PathBuf, String> {
    let dir = plan.work_dir.join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create `{}`: {e}", dir.display()))?;
    Ok(dir)
}

/// The timed phase stops after this long even if `min_ops` is not met,
/// so a run always ends within the harness's time limit.
pub const HARD_STOP_SECONDS: f64 = 120.0;

/// Traced and untraced ops alternate in blocks this long: a whole cycle
/// of the `check-cold` program pool, four rounds of the `run-sanitized`
/// scenarios, so both halves see the same inputs.
const TRACE_BLOCK: u64 = 12;

/// The reference computation runs between ops at most this often.
pub const REFERENCE_EVERY_NS: u64 = 100_000_000;
/// The reference computation's CPU time that CPU figures are scaled to.
/// It sets only the figures' level (roughly what the reference takes on a
/// quiet 2 GHz Xeon core); comparisons between runs do not depend on it.
pub const REFERENCE_NOMINAL_MS: f64 = 2.0;
/// Reference runs taken right before the timed phase.
pub const REFERENCE_PROLOGUE: usize = 20;
/// Reference runs taken after each setup repetition.
const REFERENCE_PER_SETUP: usize = 5;

/// Times `n` runs of the reference computation, ms each.
pub fn reference_samples(n: usize) -> Vec<f64> {
    (0..n).map(|_| clock::reference_ns() as f64 / 1e6).collect()
}

/// A [`Sampler`]'s interval between reference runs.
const SAMPLER_EVERY: Duration = Duration::from_millis(50);

/// Times the reference computation on a thread of its own, every
/// [`SAMPLER_EVERY`], while the work being measured runs. For work spread
/// over several threads, such as `serve-edit`'s setup (a client, daemon
/// workers, two daemon lifetimes): the machine's speed changes within
/// tens of milliseconds and differs between its two vCPUs, and samples
/// taken after a second of such work on one thread see neither the
/// slowdowns inside it nor the other vCPU. Single-threaded work keeps its
/// samples on its own thread: a sampler there mostly times the other
/// vCPU.
pub struct Sampler {
    stop: Arc<AtomicBool>,
    thread: JoinHandle<(Vec<f64>, u64)>,
}

impl Sampler {
    /// Starts the sampler, once its thread has run the reference once,
    /// untimed, to allocate its buffers.
    pub fn start() -> Sampler {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let (ready, started) = mpsc::channel();
        let thread = std::thread::spawn(move || {
            clock::reference_ns();
            let cpu = clock::thread_cpu_ns();
            let _ = ready.send(());
            let mut samples = Vec::new();
            loop {
                std::thread::park_timeout(SAMPLER_EVERY);
                if flag.load(Ordering::SeqCst) {
                    break;
                }
                samples.push(clock::reference_ns() as f64 / 1e6);
            }
            (samples, clock::thread_cpu_ns() - cpu)
        });
        let _ = started.recv();
        Sampler { stop, thread }
    }

    /// Stops the sampler. Returns its samples, ms, and the CPU its thread
    /// spent since [`Sampler::start`] returned, ns, which is not the
    /// workload's.
    pub fn finish(self) -> (Vec<f64>, u64) {
        self.stop.store(true, Ordering::SeqCst);
        self.thread.thread().unpark();
        self.thread
            .join()
            .expect("the reference sampler does not panic")
    }
}

/// What a timed phase measured.
#[derive(Debug, Default)]
pub struct Phase {
    /// Thread CPU of each op (serial), or process CPU per op completed
    /// in each 0.5 s window (concurrent), ms.
    pub op_cpu_ms: Vec<f64>,
    /// Wall time of each op (serial) or round trip of each request, ms.
    pub op_wall_ms: Vec<f64>,
    /// Whether each entry of `op_cpu_ms` was measured with tracing on.
    pub traced: Vec<bool>,
    /// Ops completed.
    pub ops: u64,
    /// Wall time of the phase, ns.
    pub wall_ns: u64,
    /// Process CPU of the phase, ns.
    pub cpu_ns: u64,
    /// Time the process's threads waited for a CPU during the phase, ns.
    pub run_delay_ns: u64,
    /// CPU time the hypervisor stole from the machine during the phase, ns.
    pub steal_ns: u64,
    /// CPU time of each run of the reference computation, ms.
    pub reference_ms: Vec<f64>,
    /// Verdicts.
    pub tally: Tally,
}

/// Setup timings: `(wall_ns, cpu_ns)` per repetition, and the reference
/// computation's CPU time alongside them or after each, ms.
#[derive(Debug, Default)]
pub struct Setups {
    times: Vec<(u64, u64)>,
    reference_ms: Vec<f64>,
}

impl Setups {
    /// Runs `setup` repeatedly (see [`Plan::min_setups`]), timing each
    /// repetition with process CPU, and keeps the last result. The
    /// reference runs on a [`Sampler`] alongside each repetition if
    /// `sampled` (setups that run on several threads), else on the
    /// calling thread after each.
    pub fn run<S>(
        plan: &Plan,
        sampled: bool,
        tracer: &mut Tracer,
        mut setup: impl FnMut(usize, &mut Tracer) -> Result<S, String>,
    ) -> Result<(S, Setups), String> {
        let mut times = Setups::default();
        let mut last = None;
        let mut spent = 0;
        for i in 0..MAX_SETUPS {
            if i >= plan.min_setups && spent >= SETUP_BUDGET_NS {
                break;
            }
            drop(last.take());
            let sampler = sampled.then(Sampler::start);
            let mark = Mark::now();
            let state = tracer.span("setup", |t| setup(i, t));
            let (wall, mut cpu) = mark.elapsed();
            let state = match sampler {
                Some(sampler) => {
                    let (samples, sampler_cpu) = sampler.finish();
                    times.reference_ms.extend(samples);
                    cpu = cpu.saturating_sub(sampler_cpu);
                    state?
                }
                None => {
                    let state = state?;
                    times
                        .reference_ms
                        .extend(reference_samples(REFERENCE_PER_SETUP));
                    state
                }
            };
            times.times.push((wall, cpu));
            spent += wall;
            last = Some(state);
        }
        Ok((last.expect("min_setups > 0"), times))
    }

    fn median_s(&self, pick: impl Fn(&(u64, u64)) -> u64) -> f64 {
        let v: Vec<f64> = self.times.iter().map(|t| pick(t) as f64 / 1e9).collect();
        quantile(&v, 0.5)
    }
}

/// A workload whose ops run one after another on the calling thread.
pub trait Serial: Sized {
    /// Builds the workload's state from the seed. `round` counts the
    /// setup repetitions, so scratch directories do not collide.
    fn setup(plan: &Plan, round: usize, tracer: &mut Tracer) -> Result<Self, String>;
    /// Readies op `op`'s inputs; called before the op and not timed.
    fn prepare(&mut self, _op: u64) -> Result<(), String> {
        Ok(())
    }
    /// Runs op `op`, checking its verdict against the known answer.
    fn op(&mut self, op: u64, tracer: &mut Tracer) -> Result<(), String>;
    /// Adds the workload's per-layer counters, accumulated over `ops`
    /// timed ops.
    fn layer_metrics(&self, ops: u64, m: &mut Metrics);
    /// Resets the per-layer counters (called when the timed phase starts).
    fn reset_counters(&mut self);
}

/// The result of one workload run.
pub struct Outcome {
    /// End-to-end metrics.
    pub e2e: Metrics,
    /// Per-layer metrics (including the `wall.*` diagnostics).
    pub layers: Metrics,
    /// Verdicts over every op.
    pub tally: Tally,
    /// Every span recorded.
    pub spans: Vec<Span>,
    /// The human-readable per-layer table.
    pub table: String,
}

/// Runs a serial workload: setup, warm-up, then the timed phase.
pub fn run_serial<W: Serial>(plan: &Plan) -> Result<Outcome, String> {
    let mut tracer = Tracer::new(plan.trace, 0);
    let (mut state, setups) = Setups::run(plan, false, &mut tracer, |round, t| {
        W::setup(plan, round, t)
    })?;
    let mut tally = Tally::default();
    tracer.set_enabled(false);
    for i in 0..plan.warmup {
        let op = u64::MAX - 1 - i;
        tally.record(state.prepare(op).and_then(|()| state.op(op, &mut tracer)));
    }
    state.reset_counters();
    clock::reset_peak_rss();

    let mut phase = Phase {
        reference_ms: reference_samples(REFERENCE_PROLOGUE),
        ..Phase::default()
    };
    let delay_before = clock::run_delay_by_thread();
    let steal_before = clock::steal_ns();
    let mark = Mark::now();
    let deadline = plan.seconds * 1e9;
    let hard_stop = HARD_STOP_SECONDS * 1e9;
    let mut last_reference = 0;
    let mut reference_total = 0;
    loop {
        let op = phase.ops;
        // The traced run alternates blocks of traced and untraced ops, so
        // the difference between them is the tracing overhead.
        let traced = plan.trace && (op / TRACE_BLOCK) % 2 == 1;
        tracer.set_enabled(traced);
        tracer.set_op(op);
        let prepared = state.prepare(op);
        let (c0, w0) = (clock::thread_cpu_ns(), clock::wall_ns());
        let verdict = prepared.and_then(|()| tracer.span("op", |t| state.op(op, t)));
        let (c1, w1) = (clock::thread_cpu_ns(), clock::wall_ns());
        phase.op_cpu_ms.push((c1 - c0) as f64 / 1e6);
        phase.op_wall_ms.push((w1 - w0) as f64 / 1e6);
        phase.traced.push(traced);
        phase.tally.record(verdict);
        phase.ops += 1;
        if w1 - last_reference >= REFERENCE_EVERY_NS {
            let reference = clock::reference_ns();
            reference_total += reference;
            phase.reference_ms.push(reference as f64 / 1e6);
            last_reference = clock::wall_ns();
        }
        let elapsed = (w1 - mark.wall) as f64;
        if (elapsed >= deadline && phase.ops >= plan.min_ops) || elapsed >= hard_stop {
            break;
        }
    }
    (phase.wall_ns, phase.cpu_ns) = mark.elapsed();
    // The reference computation's CPU is not the workload's.
    phase.cpu_ns -= reference_total;
    phase.run_delay_ns = clock::run_delay_between(&delay_before, &clock::run_delay_by_thread());
    phase.steal_ns = clock::steal_ns() - steal_before;
    tally.merge(std::mem::take(&mut phase.tally));
    phase.tally = tally;

    let mut layers = Metrics::default();
    state.layer_metrics(phase.ops, &mut layers);
    drop(state);
    Ok(finish(plan, &setups, phase, layers, tracer.into_spans()))
}

/// Reduces a measured phase to the run's metrics.
pub fn finish(
    plan: &Plan,
    setups: &Setups,
    phase: Phase,
    mut layers: Metrics,
    spans: Vec<Span>,
) -> Outcome {
    let ops = phase.ops.max(1) as f64;
    let wall_s = phase.wall_ns as f64 / 1e9;
    // Percentiles come from the untraced entries only, so tracing never
    // leaks into the end-to-end figures (every entry of an untraced run);
    // the traced entries' excess is the tracing overhead.
    let entries = |traced: bool| -> Vec<f64> {
        phase
            .op_cpu_ms
            .iter()
            .zip(&phase.traced)
            .filter(|(_, t)| **t == traced)
            .map(|(c, _)| *c)
            .collect()
    };
    let untraced = entries(false);
    let overhead = plan.trace.then(|| mean(&entries(true)) - mean(&untraced));

    // CPU figures are scaled to the reference speed (see
    // `clock::reference_ns`): on a shared virtual machine the CPU time of
    // identical work drifts with the neighbours, and the reference
    // computation, timed in the same phase, drifts with it.
    let (reference_ms, speed) = speed_factor(&phase.reference_ms);
    let (setup_reference_ms, setup_speed) = speed_factor(&setups.reference_ms);
    let raw_setup_s = setups.median_s(|t| t.1);
    let raw_per_op = phase.cpu_ns as f64 / 1e6 / ops;
    let raw_p50 = quantile(&untraced, 0.5);
    let raw_tail = quantile(&untraced, plan.tail);

    let mut e2e = Metrics::default();
    e2e.set("setup_s", raw_setup_s * setup_speed, "s");
    e2e.set("cpu_ms_per_op", raw_per_op * speed, "ms");
    e2e.set("cpu_ms_p50", raw_p50 * speed, "ms");
    e2e.set("cpu_ms_tail", raw_tail * speed, "ms");
    e2e.set("peak_rss_mb", clock::peak_rss_mb(), "MB");

    let mut summary = Summary::default();
    summary.add(&spans);
    for name in LAYER_SPANS {
        layers.set(
            &layer_metric_name(name),
            summary.cpu_ms_per_op(name) * speed,
            "ms",
        );
    }
    layers.set("trace.span_coverage", summary.coverage(), "share");
    layers.set(
        "trace.overhead_cpu_ms_per_op",
        overhead.unwrap_or(0.0) * speed,
        "ms",
    );
    layers.set("failed_share", phase.tally.failed_share(), "share");
    layers.set("raw.setup_cpu_s", raw_setup_s, "s");
    layers.set("raw.cpu_ms_per_op", raw_per_op, "ms");
    layers.set("raw.cpu_ms_p50", raw_p50, "ms");
    layers.set("raw.cpu_ms_tail", raw_tail, "ms");
    layers.set("wall.reference_ms", reference_ms, "ms");
    layers.set("wall.setup_reference_ms", setup_reference_ms, "ms");
    layers.set("wall.op_ms_p50", quantile(&phase.op_wall_ms, 0.5), "ms");
    layers.set(
        "wall.op_ms_tail",
        quantile(&phase.op_wall_ms, plan.tail),
        "ms",
    );
    layers.set("wall.ops_per_s", phase.ops as f64 / wall_s.max(1e-9), "1/s");
    layers.set("wall.setup_s", setups.median_s(|t| t.0), "s");
    layers.set(
        "wall.run_delay_share",
        phase.run_delay_ns as f64 / phase.wall_ns.max(1) as f64,
        "share",
    );
    layers.set(
        "wall.steal_share",
        phase.steal_ns as f64 / phase.wall_ns.max(1) as f64,
        "share",
    );
    layers.set(
        "wall.cpu_per_wall",
        phase.cpu_ns as f64 / phase.wall_ns.max(1) as f64,
        "share",
    );
    layers.set("wall.timed_ops", phase.ops as f64, "count");

    let mut table = summary.render_table();
    if let Some(overhead) = overhead {
        table.push_str(&format!(
            "tracing overhead: {overhead:.4} cpu ms per op (traced minus untraced ops)\n"
        ));
    }
    Outcome {
        e2e,
        layers,
        tally: phase.tally,
        spans,
        table,
    }
}

/// The reference computation's mean CPU time over `samples`, ms, and the
/// factor that scales CPU time measured alongside it to
/// [`REFERENCE_NOMINAL_MS`]. The samples are spread evenly over the phase,
/// so their mean sees the same slowdowns, on average, as the work timed
/// with them.
fn speed_factor(samples: &[f64]) -> (f64, f64) {
    let reference_ms = mean(samples);
    if reference_ms > 0.0 {
        (reference_ms, REFERENCE_NOMINAL_MS / reference_ms)
    } else {
        (0.0, 1.0)
    }
}

/// Span names whose CPU per op is reported as `<layer>_cpu_ms`
/// (`verify`, `flow` and `analysis` as `<layer>.cpu_ms`).
pub const LAYER_SPANS: &[&str] = &[
    "syntax.parse",
    "core.globals",
    "core.fingerprint",
    "core.check",
    "core.free",
    "verify",
    "flow",
    "analysis",
    "incr.load",
    "incr.check_units",
    "incr.save",
    "runtime.compile",
    "runtime.run",
];

/// The metric reporting span `name`'s CPU per op.
pub fn layer_metric_name(name: &str) -> String {
    if name.contains('.') {
        format!("{name}_cpu_ms")
    } else {
        format!("{name}.cpu_ms")
    }
}
