//! In-memory span recording around the benchmark's calls into each layer.
//!
//! A span records its name, start and end (wall), its parent span, the op
//! it belongs to, the recording thread and the thread CPU it consumed.
//! Spans stay in memory while the run measures and are written out once,
//! when it ends. A disabled [`Tracer`] records nothing and costs one
//! branch per call.

use crate::clock::{thread_cpu_ns, wall_ns};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The op id setup spans are recorded under.
pub const SETUP_OP: u64 = u64::MAX;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer name, e.g. `core.check`.
    pub name: &'static str,
    /// The op this span belongs to ([`SETUP_OP`] during setup).
    pub op: u64,
    /// Index of the enclosing span in the same tracer, if any.
    pub parent: Option<usize>,
    /// Which tracer (client thread) recorded the span.
    pub thread: u32,
    /// Wall-clock start, ns since process start.
    pub start_ns: u64,
    /// Wall-clock end, ns since process start.
    pub end_ns: u64,
    /// Thread CPU consumed between start and end, ns.
    pub cpu_ns: u64,
}

/// Records spans for one thread.
pub struct Tracer {
    enabled: bool,
    thread: u32,
    op: u64,
    spans: Vec<Span>,
    /// Open spans: (index into `spans`, thread CPU at entry).
    stack: Vec<(usize, u64)>,
}

impl Tracer {
    /// A tracer for thread `thread`, recording when `enabled`.
    pub fn new(enabled: bool, thread: u32) -> Tracer {
        Tracer {
            enabled,
            thread,
            op: SETUP_OP,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Turns recording on or off between ops.
    pub fn set_enabled(&mut self, on: bool) {
        debug_assert!(self.stack.is_empty(), "toggled inside a span");
        self.enabled = on;
    }

    /// Sets the op id later spans are attributed to.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.stack.last().map(|(i, _)| *i),
            thread: self.thread,
            start_ns: wall_ns(),
            end_ns: 0,
            cpu_ns: 0,
        });
        self.stack.push((index, thread_cpu_ns()));
        let out = f(self);
        let (index, cpu_start) = self.stack.pop().expect("span stack balanced");
        let span = &mut self.spans[index];
        span.cpu_ns = thread_cpu_ns() - cpu_start;
        span.end_ns = wall_ns();
        out
    }

    /// Consumes the tracer, returning its spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Per-name aggregate over a set of spans.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerTotals {
    /// Spans with this name.
    pub count: u64,
    /// Summed thread CPU, ns.
    pub cpu_ns: u64,
    /// Summed self CPU (span CPU minus the CPU of its direct children), ns.
    pub self_cpu_ns: u64,
    /// Summed wall time, ns.
    pub wall_ns: u64,
}

/// Aggregates over spans recorded in the timed phase: per-name totals,
/// and how much of the `op` spans' CPU their direct children cover.
#[derive(Debug, Default)]
pub struct Summary {
    /// Totals by span name (ops only; setup spans are excluded).
    pub layers: BTreeMap<&'static str, LayerTotals>,
    /// Totals by span name for setup spans.
    pub setup: BTreeMap<&'static str, LayerTotals>,
    /// Summed CPU of `op` spans, ns.
    pub op_cpu_ns: u64,
    /// Summed CPU of the direct children of `op` spans, ns.
    pub covered_cpu_ns: u64,
    /// Number of `op` spans.
    pub ops: u64,
}

impl Summary {
    /// Summarizes `spans` (the spans of one tracer, parents before
    /// children, as [`Tracer`] records them).
    pub fn add(&mut self, spans: &[Span]) {
        let mut child_cpu = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                child_cpu[p] += s.cpu_ns;
            }
        }
        for (i, s) in spans.iter().enumerate() {
            let table = if s.op == SETUP_OP {
                &mut self.setup
            } else {
                &mut self.layers
            };
            let t = table.entry(s.name).or_default();
            t.count += 1;
            t.cpu_ns += s.cpu_ns;
            t.self_cpu_ns += s.cpu_ns.saturating_sub(child_cpu[i]);
            t.wall_ns += s.end_ns - s.start_ns;
            if s.name == "op" && s.op != SETUP_OP {
                self.ops += 1;
                self.op_cpu_ns += s.cpu_ns;
                self.covered_cpu_ns += child_cpu[i].min(s.cpu_ns);
            }
        }
    }

    /// Mean CPU per op of the spans named `name`, in ms (0 when the layer
    /// never ran in an op).
    pub fn cpu_ms_per_op(&self, name: &str) -> f64 {
        match (self.layers.get(name), self.ops) {
            (Some(t), ops) if ops > 0 => t.cpu_ns as f64 / ops as f64 / 1e6,
            _ => 0.0,
        }
    }

    /// Share of op CPU covered by layer spans (0 without op spans).
    pub fn coverage(&self) -> f64 {
        if self.op_cpu_ns == 0 {
            0.0
        } else {
            self.covered_cpu_ns as f64 / self.op_cpu_ns as f64
        }
    }

    /// The human-readable per-layer table: inclusive CPU, self CPU and
    /// wall time per op, for op spans and then setup spans.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let ops = self.ops.max(1) as f64;
        let _ = writeln!(
            out,
            "{:<24} {:>8} {:>14} {:>14} {:>14}",
            "span (per op)", "count", "cpu_ms", "self_cpu_ms", "wall_ms"
        );
        for (name, t) in &self.layers {
            let _ = writeln!(
                out,
                "{:<24} {:>8} {:>14.4} {:>14.4} {:>14.4}",
                name,
                t.count,
                t.cpu_ns as f64 / ops / 1e6,
                t.self_cpu_ns as f64 / ops / 1e6,
                t.wall_ns as f64 / ops / 1e6
            );
        }
        if !self.setup.is_empty() {
            let _ = writeln!(out, "{:<24} (totals over every setup)", "setup span");
            for (name, t) in &self.setup {
                let _ = writeln!(
                    out,
                    "{:<24} {:>8} {:>14.4} {:>14.4} {:>14.4}",
                    name,
                    t.count,
                    t.cpu_ns as f64 / 1e6,
                    t.self_cpu_ns as f64 / 1e6,
                    t.wall_ns as f64 / 1e6
                );
            }
        }
        let _ = writeln!(
            out,
            "layer spans cover {:.2}% of op CPU over {} traced op(s)",
            self.coverage() * 100.0,
            self.ops
        );
        out
    }
}

/// Renders spans as a `perfbench-trace/1` JSON document.
pub fn render_json(workload: &str, seed: u64, spans: &[Span]) -> String {
    let mut out = String::with_capacity(64 + spans.len() * 112);
    let _ = write!(
        out,
        "{{\"schema\":\"perfbench-trace/1\",\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":["
    );
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let op = if s.op == SETUP_OP {
            "\"setup\"".to_string()
        } else {
            s.op.to_string()
        };
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "\n{{\"name\":\"{}\",\"op\":{op},\"parent\":{parent},\"thread\":{},\"start_ns\":{},\"end_ns\":{},\"cpu_ns\":{}}}",
            s.name, s.thread, s.start_ns, s.end_ns, s.cpu_ns
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn burn(iters: u64) -> u64 {
        (0..iters).fold(0u64, |a, i| {
            std::hint::black_box(a.wrapping_mul(31).wrapping_add(i))
        })
    }

    #[test]
    fn self_time_excludes_children_and_coverage_is_a_share() {
        let mut t = Tracer::new(true, 0);
        t.set_op(0);
        t.span("op", |t| {
            t.span("outer", |t| {
                burn(200_000);
                t.span("inner", |_| burn(200_000));
            });
        });
        let spans = t.into_spans();
        let mut s = Summary::default();
        s.add(&spans);
        let outer = s.layers["outer"];
        let inner = s.layers["inner"];
        assert_eq!(outer.cpu_ns - inner.cpu_ns, outer.self_cpu_ns);
        assert_eq!(s.ops, 1);
        assert!(s.coverage() > 0.0 && s.coverage() <= 1.0);
        assert_eq!(spans[2].parent, Some(1));
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, 0);
        let v = t.span("op", |t| t.span("x", |_| 7));
        assert_eq!(v, 7);
        assert!(t.into_spans().is_empty());
    }
}
