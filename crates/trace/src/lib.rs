//! `fearless-trace` — zero-cost-when-disabled instrumentation.
//!
//! The checker's virtual-transformation search and the runtime machine
//! both have performance stories the paper argues for (§5.1 greedy
//! search with a liveness oracle; §6 cheap `if disconnected`). This
//! crate makes them observable without taxing the common case:
//!
//! * [`TraceSink`] — the receiver trait: spans, counters, point events.
//! * [`Tracer`] — the handle instrumented code carries; when no sink is
//!   attached every call is an inlined untaken branch.
//! * [`MemorySink`] — the standard collector, serializing to
//!   deterministic JSON (schema `fearless-trace/1`).
//! * [`NoopSink`] — discards everything; used by parity tests to prove
//!   attaching a sink is observation-only.
//! * [`Json`] — the hand-rolled JSON tree both the collector and the
//!   CLI metrics output render through (no external deps, byte-stable),
//!   with its parser and the checksummed cache envelope in [`json`].

#![warn(missing_docs)]

pub mod json;
mod metrics;
mod sink;

pub use json::{escape, Json};
pub use metrics::{EventRecord, MemorySink, ScopeMetrics};
pub use sink::{NoopSink, TraceSink, Tracer};
