//! `perfbench`: a CPU-time benchmark of the checker, its caches, the
//! daemon and the runtime, over four seeded workloads.
//!
//! ```text
//! perfbench --workload <check-cold|edit-loop|serve-edit|run-sanitized>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. Everything before
//! it is a human-readable report. See `perfbench/README.md`.

mod check_cold;
mod clock;
mod edit;
mod edit_loop;
mod run_sanitized;
mod runner;
mod serve_edit;
mod stats;
mod trace;

use runner::{run_serial, Outcome, Plan};
use std::path::Path;
use std::process::ExitCode;

/// Scratch caches, sockets and span files go here, relative to the
/// directory the benchmark runs in.
const WORK_DIR: &str = ".bench_work";

/// The end-to-end metrics, in report order.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("cpu_ms_per_op", "ms"),
    ("cpu_ms_p50", "ms"),
    ("cpu_ms_tail", "ms"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics, in report order. A layer a workload bypasses
/// reports 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("syntax.parse_cpu_ms", "ms"),
    ("syntax.source_kb", "KiB"),
    ("core.globals_cpu_ms", "ms"),
    ("core.fingerprint_cpu_ms", "ms"),
    ("core.check_cpu_ms", "ms"),
    ("core.free_cpu_ms", "ms"),
    ("core.deriv_nodes", "count"),
    ("core.vir_steps", "count"),
    ("verify.cpu_ms", "ms"),
    ("verify.rule_nodes", "count"),
    ("flow.cpu_ms", "ms"),
    ("flow.safe_steps", "count"),
    ("flow.unknown_steps", "count"),
    ("analysis.cpu_ms", "ms"),
    ("analysis.recheck_experiments", "count"),
    ("analysis.recheck_cache_hits", "count"),
    ("analysis.recheck_cache_misses", "count"),
    ("incr.load_cpu_ms", "ms"),
    ("incr.cache_kb", "KiB"),
    ("incr.check_units_cpu_ms", "ms"),
    ("incr.save_cpu_ms", "ms"),
    ("incr.hits", "count"),
    ("incr.misses", "count"),
    ("incr.invalidations", "count"),
    ("incr.hit_ratio", "share"),
    ("incr.rename_edit_share", "share"),
    ("serve.check_rtt_ms_p50", "ms"),
    ("serve.flow_rtt_ms_p50", "ms"),
    ("serve.profile_rtt_ms_p50", "ms"),
    ("serve.dedupe_hits", "count"),
    ("serve.dedupe_ratio", "share"),
    ("serve.shed", "count"),
    ("serve.worker_restarts", "count"),
    ("serve.cache_entries", "count"),
    ("serve.wal_replayed", "count"),
    ("runtime.compile_cpu_ms", "ms"),
    ("runtime.run_cpu_ms", "ms"),
    ("runtime.steps", "count"),
    ("runtime.reservation_checks", "count"),
    ("runtime.sanitize_walks", "count"),
    ("runtime.sanitize_partial_walks", "count"),
    ("runtime.sanitize_skipped", "count"),
    ("runtime.skip_ratio", "share"),
    ("trace.span_coverage", "share"),
    ("trace.overhead_cpu_ms_per_op", "ms"),
    ("failed_share", "share"),
    ("wall.op_ms_p50", "ms"),
    ("wall.op_ms_tail", "ms"),
    ("wall.ops_per_s", "1/s"),
    ("wall.setup_s", "s"),
    ("wall.run_delay_share", "share"),
    ("wall.steal_share", "share"),
    ("wall.cpu_per_wall", "share"),
    ("wall.timed_ops", "count"),
    ("raw.setup_cpu_s", "s"),
    ("raw.cpu_ms_per_op", "ms"),
    ("raw.cpu_ms_p50", "ms"),
    ("raw.cpu_ms_tail", "ms"),
    ("wall.reference_ms", "ms"),
    ("wall.setup_reference_ms", "ms"),
];

/// Diagnostics printed on every run, traced or not, so a run taken on a
/// contended machine can be told apart.
const DIAGNOSTICS: &[(&str, &str)] = &[
    ("failed_share", "share"),
    ("wall.timed_ops", "count"),
    ("wall.op_ms_p50", "ms"),
    ("wall.ops_per_s", "1/s"),
    ("wall.setup_s", "s"),
    ("wall.run_delay_share", "share"),
    ("wall.steal_share", "share"),
    ("wall.cpu_per_wall", "share"),
    ("raw.setup_cpu_s", "s"),
    ("raw.cpu_ms_per_op", "ms"),
    ("raw.cpu_ms_p50", "ms"),
    ("raw.cpu_ms_tail", "ms"),
    ("wall.reference_ms", "ms"),
    ("wall.setup_reference_ms", "ms"),
];

/// Per-workload run shape: `(min timed ops or windows, tail quantile,
/// warm-up ops, min setup repetitions)`. The tail is the highest
/// percentile with at least ten samples beyond it at the minimum count.
/// The slow setups repeat more often, so the median is steady.
fn shape(workload: &str) -> Option<(u64, f64, u64, usize)> {
    Some(match workload {
        "check-cold" => (100, 0.90, 2, 3),
        "edit-loop" => (25, 0.60, 1, 5),
        "serve-edit" => (30, 0.66, 0, 7),
        "run-sanitized" => (200, 0.90, 3, 3),
        _ => return None,
    })
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed `{value}`"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds `{value}`"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got `{value}`")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn run(args: &Args) -> Result<Outcome, String> {
    let (min_ops, tail, warmup, min_setups) =
        shape(&args.workload).ok_or_else(|| format!("unknown workload `{}`", args.workload))?;
    let plan = Plan {
        seed: args.seed,
        seconds: args.seconds,
        min_ops,
        warmup,
        tail,
        min_setups,
        trace: args.trace,
        work_dir: Path::new(WORK_DIR).join(format!("{}-{}", args.workload, std::process::id())),
    };
    std::fs::create_dir_all(&plan.work_dir)
        .map_err(|e| format!("cannot create `{}`: {e}", plan.work_dir.display()))?;
    let outcome = match args.workload.as_str() {
        "check-cold" => run_serial::<check_cold::CheckCold>(&plan),
        "edit-loop" => run_serial::<edit_loop::EditLoop>(&plan),
        "serve-edit" => serve_edit::run(&plan),
        _ => run_serial::<run_sanitized::RunSanitized>(&plan),
    };
    let _ = std::fs::remove_dir_all(&plan.work_dir);
    outcome
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };

    let tally = &outcome.tally;
    println!(
        "workload {} seed {}: {} op(s) attempted, {} failed{}",
        args.workload,
        args.seed,
        tally.attempted,
        tally.failed,
        tally
            .first_failure
            .as_deref()
            .map_or(String::new(), |f| format!(" (first: {f})"))
    );
    println!("end-to-end:");
    print!("{}", outcome.e2e.select(END_TO_END).render_lines());
    println!("diagnostics:");
    print!("{}", outcome.layers.select(DIAGNOSTICS).render_lines());
    if args.trace {
        println!("per-layer:");
        print!("{}", outcome.layers.select(PER_LAYER).render_lines());
        print!("{}", outcome.table);
        let dir = Path::new(WORK_DIR).join("traces");
        let path = dir.join(format!("{}-seed{}.json", args.workload, args.seed));
        let written = std::fs::create_dir_all(&dir).and_then(|()| {
            std::fs::write(
                &path,
                trace::render_json(&args.workload, args.seed, &outcome.spans),
            )
        });
        match written {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: cannot write `{}`: {e}", path.display()),
        }
    }
    let metrics = if args.trace {
        outcome.layers.select(PER_LAYER)
    } else {
        outcome.e2e.select(END_TO_END)
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted,
        tally.failed,
        metrics.render_json()
    );
    ExitCode::SUCCESS
}
