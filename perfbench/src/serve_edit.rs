//! `serve-edit`: editor traffic against an in-process daemon. Two
//! closed-loop clients each replay a seeded editor session — mostly
//! `check` requests on successively edited bodies, some `flow` and
//! `profile` requests and a share of exact repeats — against a daemon
//! that starts over the cache and write-ahead log a previous session
//! left behind.

use crate::clock::{self, Mark};
use crate::edit::Project;
use crate::runner::{
    finish, plan_dir, reference_samples, Outcome, Phase, Plan, Setups, HARD_STOP_SECONDS,
    REFERENCE_PROLOGUE,
};
use crate::stats::{quantile, Metrics, Rng, Tally};
use crate::trace::Tracer;
use fearless_serve::client::stat_counter;
use fearless_serve::{Client, Response, ServeOptions, Server};
use fearless_synth::{synthesize, SynthOptions};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::Duration;

/// Closed-loop clients.
pub const CLIENTS: usize = 2;
const WORKERS: usize = 2;
/// Larger than the client count, so a closed loop never sheds.
const QUEUE: usize = 16;
/// Each client edits its own fixed synthesized file (synth seed
/// `FILE_SEED + client`); `--seed` drives the editor sessions.
const FILE_SEED: u64 = 42;
const GENERATED: usize = 50;
/// Requests each client sends in each of the previous session's two
/// daemon lifetimes.
const PREVIOUS_REQUESTS: usize = 6;
/// The request mix, dealt in seeded order from a deck of 20 per cycle so
/// every cycle has exactly this make-up: exact repeats of an earlier
/// request, `flow` and `profile` of the current body, and `check`s of a
/// freshly edited body. The counts are chosen, not measured from editor
/// traffic.
const DECK: [(Pick, usize); 4] = [
    (Pick::Repeat, 2),
    (Pick::Flow, 2),
    (Pick::Profile, 1),
    (Pick::Check, 15),
];
const RENAME_PERCENT: u64 = 20;
/// The sampler times the reference computation every tick, and closes a
/// window every `TICKS_PER_WINDOW` ticks (0.5 s); each window gives one
/// process-CPU-per-op value. The traced run traces every other window.
const TICK: Duration = Duration::from_millis(100);
const TICKS_PER_WINDOW: u64 = 5;

/// A daemon that is drained and joined when dropped.
struct Daemon(Option<fearless_serve::server::SpawnedServer>);

impl Daemon {
    fn spawn(socket: &Path, cache_dir: &Path) -> Result<Daemon, String> {
        let mut opts = ServeOptions::new(socket);
        opts.workers = WORKERS;
        opts.queue_capacity = QUEUE;
        opts.cache_dir = Some(cache_dir.to_path_buf());
        Ok(Daemon(Some(Server::spawn(opts)?)))
    }

    fn stop(&mut self) -> Result<(), String> {
        match self.0.take() {
            Some(d) => d.shutdown_and_join().map(|_| ()),
            None => Ok(()),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

#[derive(Clone, Copy, Debug)]
enum Pick {
    Repeat,
    Flow,
    Profile,
    Check,
}

/// One client's editor session.
struct Session {
    project: Project,
    rng: Rng,
    deck: Vec<Pick>,
    /// Earlier requests and their replies, for exact repeats.
    history: Vec<(&'static str, String, String)>,
}

impl Session {
    fn new(seed: u64, client: usize) -> Session {
        let rng = Rng::new(seed, 10 + client as u64);
        let text = synthesize(&SynthOptions {
            seed: FILE_SEED + client as u64,
            functions: GENERATED,
            ..SynthOptions::default()
        });
        Session {
            project: Project::new(&text),
            rng,
            deck: Vec::new(),
            history: Vec::new(),
        }
    }

    /// Picks the next request: `(kind, body, expected output if a repeat)`.
    fn next(&mut self) -> (&'static str, String, Option<String>) {
        if self.deck.is_empty() {
            self.deck = DECK
                .iter()
                .flat_map(|(pick, n)| std::iter::repeat_n(*pick, *n))
                .collect();
            for i in (1..self.deck.len()).rev() {
                self.deck.swap(i, self.rng.range(0, i as u64) as usize);
            }
        }
        let kind = match self.deck.pop().expect("deck refilled") {
            Pick::Repeat if !self.history.is_empty() => {
                let i = self.rng.range(0, self.history.len() as u64 - 1) as usize;
                let (kind, body, out) = self.history[i].clone();
                return (kind, body, Some(out));
            }
            Pick::Flow => "flow",
            Pick::Profile => "profile",
            Pick::Repeat | Pick::Check => {
                self.project.edit(&mut self.rng, RENAME_PERCENT);
                "check"
            }
        };
        (kind, self.project.text(), None)
    }

    /// A `check` of a freshly body-edited file, as the previous session
    /// sends: each adds the same number of cache entries on every seed.
    fn next_body_check(&mut self) -> String {
        self.project.edit(&mut self.rng, 0);
        self.project.text()
    }

    /// Sends `body` as a `kind` request and checks the reply.
    fn exchange(
        &mut self,
        client: &mut Client,
        kind: &'static str,
        body: String,
        repeat_of: Option<String>,
    ) -> Result<(), String> {
        let r = client.request(kind, &body)?;
        check_reply(kind, &r, repeat_of.as_deref())?;
        if repeat_of.is_none() {
            if self.history.len() >= 32 {
                self.history.remove(0);
            }
            self.history.push((kind, body, r.output));
        }
        Ok(())
    }
}

/// The span a request of `kind` is recorded under.
fn request_span(kind: &str) -> &'static str {
    match kind {
        "check" => "serve.check",
        "flow" => "serve.flow",
        _ => "serve.profile",
    }
}

/// The known answer for every request of this workload: code 0 and an
/// `ok` verdict of the right shape; a repeat must reproduce its first
/// reply byte for byte.
pub fn check_reply(kind: &str, r: &Response, repeat_of: Option<&str>) -> Result<(), String> {
    if r.code != 0 || r.status != "ok" {
        return Err(format!(
            "{kind}: code {} ({}): {}",
            r.code,
            r.status,
            r.output.lines().next().unwrap_or("")
        ));
    }
    let shaped = match kind {
        "check" => r.output.starts_with("ok: "),
        "flow" => r.output.contains("\"fearless-flow/1\""),
        _ => r.output.starts_with('{'),
    };
    if !shaped {
        return Err(format!("{kind}: unexpected reply `{:.60}`", r.output));
    }
    match repeat_of {
        Some(first) if first != r.output => Err(format!("{kind}: a repeat changed its reply")),
        _ => Ok(()),
    }
}

/// The previous session: one daemon lifetime that ends in a clean
/// shutdown (leaving the cache document), then a second one whose
/// write-ahead log is copied out while it is live (as a crash would
/// leave it). Returns the directory holding that cache and log. It sends
/// body-edit `check`s only, so the cache and log it leaves have the same
/// size on every seed.
fn previous_session(
    plan: &Plan,
    round: usize,
    sessions: &mut [Session],
) -> Result<PathBuf, String> {
    let prev = plan_dir(plan, &format!("serve-prev-{round}"))?;
    let live = plan_dir(plan, &format!("serve-live-{round}"))?;
    let socket = plan.work_dir.join(format!("prev-{round}.sock"));
    for lifetime in 0..2 {
        let mut daemon = Daemon::spawn(&socket, &prev)?;
        for s in sessions.iter_mut() {
            let mut client = Client::connect(&socket)?;
            for _ in 0..PREVIOUS_REQUESTS {
                let body = s.next_body_check();
                s.exchange(&mut client, "check", body, None)?;
            }
        }
        if lifetime == 1 {
            for entry in std::fs::read_dir(&prev)
                .map_err(|e| e.to_string())?
                .flatten()
            {
                let name = entry.file_name();
                let name = name.to_string_lossy();
                if name.starts_with("check-cache.")
                    && !name.contains(".tmp.")
                    && !name.ends_with(".lock")
                {
                    std::fs::copy(entry.path(), live.join(&*name)).map_err(|e| e.to_string())?;
                }
            }
        }
        daemon.stop()?;
    }
    Ok(live)
}

/// The state setup leaves: the daemon, its socket and the sessions.
struct Ready {
    daemon: Daemon,
    socket: PathBuf,
    sessions: Vec<Session>,
}

fn setup(plan: &Plan, round: usize, tracer: &mut Tracer) -> Result<Ready, String> {
    let mut sessions: Vec<Session> = tracer.span("synth", |_| {
        (0..CLIENTS).map(|c| Session::new(plan.seed, c)).collect()
    });
    let live = tracer.span("serve.previous_session", |_| {
        previous_session(plan, round, &mut sessions)
    })?;
    let socket = plan.work_dir.join(format!("live-{round}.sock"));
    let daemon = tracer.span("serve.bind", |_| Daemon::spawn(&socket, &live))?;
    Ok(Ready {
        daemon,
        socket,
        sessions,
    })
}

/// Per-client results of the timed phase.
#[derive(Default)]
struct ClientResult {
    tally: Tally,
    rtt_ms: Vec<(&'static str, f64)>,
    spans: Vec<crate::trace::Span>,
}

/// Runs the workload.
pub fn run(plan: &Plan) -> Result<Outcome, String> {
    let mut setup_tracer = Tracer::new(plan.trace, CLIENTS as u32);
    let (mut ready, setups) = Setups::run(plan, true, &mut setup_tracer, |round, t| {
        setup(plan, round, t)
    })?;

    let ops = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    let tracing = AtomicBool::new(false);
    let end = Barrier::new(CLIENTS + 1);
    let release = Barrier::new(CLIENTS + 1);
    // The reference computation is timed right before and right after
    // the timed phase, and once per window during it.
    let mut phase = Phase {
        reference_ms: reference_samples(REFERENCE_PROLOGUE),
        ..Phase::default()
    };
    let socket = ready.socket.clone();
    clock::reset_peak_rss();

    let results: Vec<Result<ClientResult, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = ready
            .sessions
            .iter_mut()
            .enumerate()
            .map(|(i, session)| {
                let (ops, stop, tracing, end, release) = (&ops, &stop, &tracing, &end, &release);
                let socket = &socket;
                scope.spawn(move || {
                    let mut out = ClientResult::default();
                    let client = Client::connect(socket);
                    let mut tracer = Tracer::new(false, i as u32);
                    if let Ok(mut client) = client {
                        let mut op = 0u64;
                        while !stop.load(Ordering::SeqCst) {
                            tracer.set_enabled(tracing.load(Ordering::SeqCst));
                            tracer.set_op(op);
                            let w0 = clock::wall_ns();
                            let (kind, body, repeat_of) = session.next();
                            let verdict = tracer.span("op", |t| {
                                t.span(request_span(kind), |_| {
                                    session.exchange(&mut client, kind, body, repeat_of)
                                })
                            });
                            out.rtt_ms
                                .push((kind, (clock::wall_ns() - w0) as f64 / 1e6));
                            out.tally.record(verdict);
                            ops.fetch_add(1, Ordering::SeqCst);
                            op += 1;
                        }
                    } else if let Err(e) = client {
                        out.tally.record(Err(e));
                    }
                    end.wait();
                    release.wait();
                    out.spans = tracer.into_spans();
                    Ok(out)
                })
            })
            .collect();

        // The sampler: the reference computation every tick, and one
        // CPU-per-op value per window. The reference's own CPU is taken
        // out of the process CPU it is measured in.
        let delay_before = clock::run_delay_by_thread();
        let steal_before = clock::steal_ns();
        let mark = Mark::now();
        let mut window = (mark.cpu, 0u64);
        let mut reference_total = 0u64;
        for tick in 1u64.. {
            std::thread::sleep(TICK);
            let reference = clock::reference_ns();
            reference_total += reference;
            phase.reference_ms.push(reference as f64 / 1e6);
            if tick % TICKS_PER_WINDOW != 0 {
                continue;
            }
            let now = Mark::now();
            let cpu = now.cpu - reference_total;
            let done = ops.load(Ordering::SeqCst);
            if done > window.1 {
                phase
                    .op_cpu_ms
                    .push((cpu - window.0) as f64 / 1e6 / (done - window.1) as f64);
                phase.traced.push(tracing.load(Ordering::SeqCst));
                window = (cpu, done);
                // Traced and untraced windows alternate; their difference
                // is the tracing overhead.
                tracing.store(
                    plan.trace && phase.op_cpu_ms.len() % 2 == 1,
                    Ordering::SeqCst,
                );
            }
            let elapsed = (now.wall - mark.wall) as f64 / 1e9;
            let windows = phase.op_cpu_ms.len() as u64;
            if (elapsed >= plan.seconds && windows >= plan.min_ops) || elapsed >= HARD_STOP_SECONDS
            {
                break;
            }
        }
        stop.store(true, Ordering::SeqCst);
        end.wait();
        (phase.wall_ns, phase.cpu_ns) = mark.elapsed();
        phase.cpu_ns -= reference_total;
        phase.run_delay_ns = clock::run_delay_between(&delay_before, &clock::run_delay_by_thread());
        phase.steal_ns = clock::steal_ns() - steal_before;
        phase.ops = ops.load(Ordering::SeqCst);
        release.wait();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "client thread panicked".to_string())?)
            .collect()
    });

    phase
        .reference_ms
        .extend(reference_samples(REFERENCE_PROLOGUE));
    let mut spans = setup_tracer.into_spans();
    let mut rtts: Vec<(&'static str, f64)> = Vec::new();
    for r in results {
        let r = r?;
        phase.tally.merge(r.tally);
        rtts.extend(r.rtt_ms);
        // Parent links index the whole span list once tracers are merged.
        let base = spans.len();
        spans.extend(r.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    phase.op_wall_ms = rtts.iter().map(|(_, ms)| *ms).collect();
    let mut layers = Metrics::default();
    for kind in ["check", "flow", "profile"] {
        let v: Vec<f64> = rtts
            .iter()
            .filter(|(k, _)| *k == kind)
            .map(|(_, ms)| *ms)
            .collect();
        layers.set(&format!("serve.{kind}_rtt_ms_p50"), quantile(&v, 0.5), "ms");
    }
    let stats = Client::connect(&ready.socket)
        .and_then(|mut c| c.request("stats", ""))
        .map(|r| r.output)
        .unwrap_or_default();
    let counter = |name: &str| stat_counter(&stats, name) as f64;
    layers.set("serve.dedupe_hits", counter("dedupe_hits"), "count");
    layers.set(
        "serve.dedupe_ratio",
        counter("dedupe_hits") / counter("work_requests").max(1.0),
        "share",
    );
    layers.set("serve.shed", counter("shed"), "count");
    layers.set("serve.worker_restarts", counter("worker_restarts"), "count");
    layers.set("serve.cache_entries", counter("cache_entries"), "count");
    layers.set("serve.wal_replayed", counter("wal_replayed"), "count");
    ready.daemon.stop()?;
    Ok(finish(plan, &setups, phase, layers, spans))
}
