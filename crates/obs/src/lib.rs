//! # bate-obs — observability substrate for the BATE workspace
//!
//! The bottom of the workspace dependency graph: every other crate can
//! (and most do) depend on this one, so it is deliberately std-only.
//! Three pieces:
//!
//! * [`clock`] — the `Clock` capability trait with real
//!   ([`SystemClock`]) and virtual ([`SimClock`]) implementations.
//!   Moved here from `bate-core` so telemetry timestamps share the
//!   components' time source; `bate_core::clock` re-exports it, so
//!   existing imports are unchanged.
//! * [`metrics`] — a lock-sharded registry of counters, gauges, and
//!   log-linear histograms with Prometheus text exposition
//!   ([`Registry::render_prometheus`]) and deterministic JSONL
//!   snapshots ([`Registry::snapshot_jsonl_filtered`]).
//! * [`trace`] — `event!`/`span!` structured tracing over a pluggable
//!   [`Subscriber`](trace::Subscriber), with ring-buffer (tests), JSONL
//!   (replayable captures, faultline-style), and stderr (CLIs)
//!   subscribers. Bitwise-deterministic under [`SimClock`] per the
//!   contract in the module docs.
//! * [`context`] — deterministic causal trace contexts
//!   (`trace_id`/`span_id`/`parent_span_id`, derived from request ids —
//!   never randomness), a thread-local span stack, explicit
//!   [`Handoff`](context::Handoff) for scoped-thread fan-outs, and
//!   remote adoption for contexts carried across the wire.
//! * [`flight`] — a bounded flight-recorder ring of recent events that
//!   dumps deterministic, causally-sliced JSONL artifacts on triggers
//!   (cert-gate cold fallback, storm latency breach).
//! * [`slo`] — declarative SLO specs (admission p99, warm-hit rate,
//!   BA-guarantee rate) evaluated over registry snapshots with
//!   multi-window burn-rate alerting.
//!
//! ## Quick use
//!
//! ```
//! use bate_obs as obs;
//! use std::sync::Arc;
//!
//! // Metrics: register once, record forever.
//! let solves = obs::metrics::Registry::global().counter("bate_solver_solves_total");
//! solves.inc();
//!
//! // Tracing: install a subscriber, emit structured events.
//! let ring = obs::trace::RingBufferSubscriber::new(64);
//! obs::trace::install(ring.clone(), obs::SimClock::shared());
//! obs::info!("sched.round", demands = 12usize);
//! obs::trace::uninstall();
//! assert_eq!(ring.events().len(), 1);
//! ```

pub mod clock;
pub mod context;
pub mod flight;
pub mod metrics;
pub mod slo;
pub mod trace;

pub use clock::{Clock, SimClock, SystemClock};
pub use context::{CtxGuard, Handoff, SpanCtx};
pub use flight::FlightDump;
pub use metrics::{Counter, Gauge, Histogram, MetricKind, Registry};
pub use slo::{SloEngine, SloKind, SloSpec, SloStatus};
pub use trace::{
    Event, JsonlSubscriber, Level, NoopSubscriber, RingBufferSubscriber, SpanGuard,
    StderrSubscriber, Subscriber, Value,
};
