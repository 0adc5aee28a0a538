//! # faultline — deterministic fault injection for the BATE control plane
//!
//! The control plane (`bate-system`) speaks length-prefixed, CRC-protected
//! frames over TCP between clients, the controller, and per-DC brokers.
//! This crate injects faults *between* those endpoints and checks that
//! the hardening holds:
//!
//! * [`plan`] — the `FaultPlan` DSL: `FaultPlan::seeded(42).drop(0.1)
//!   .sever_after(3)`. Per-frame decisions are a pure function of
//!   `(seed, conn, dir, seq)`, so a plan is a *schedule*, not a dice roll.
//! * [`proxy`] — a frame-aware TCP man-in-the-middle applying the plan:
//!   drop, delay, duplicate, truncate mid-frame, corrupt (stale CRC), or
//!   sever. Endpoints dial the proxy instead of each other — no code in
//!   `bate-system` knows it is being faulted.
//! * [`trace`] — every decision recorded as JSONL, sorted by
//!   `(conn, dir, seq)`: the same seed yields a byte-identical trace, and
//!   the header line replays the plan.
//! * [`harness`] — the end-to-end pipeline (submit → admit → push →
//!   enforce → fail → recover) under a plan, with invariant checking: no
//!   admitted demand silently dropped, no double-counted retries, and
//!   bounded-time recovery convergence.
//!
//! Run the seeded suite with `cargo test -p faultline`.

pub mod harness;
pub mod plan;
pub mod proxy;
pub mod trace;

pub use harness::{run_pipeline, standard_demands, standard_suite, trace_golden_path, PipelineReport};
pub use plan::{Action, Direction, FaultPlan, FaultRule};
pub use proxy::FaultProxy;
pub use trace::{parse_plan_line, Trace, TraceRecord};
