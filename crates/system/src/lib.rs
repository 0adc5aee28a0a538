//! # bate-system — the BATE controller/broker system (§4)
//!
//! The paper implements BATE as a real system: one central controller and a
//! broker per data center, talking over long-lived TCP connections. The
//! brokers enforce allocations on OpenFlow switches and report link status
//! upward. This crate reproduces the control plane with real sockets:
//!
//! * [`wire`] — a length-prefixed binary codec over `TcpStream` (the paper
//!   uses long-lived TCP sessions "to avoid unnecessary delay"; so do we).
//! * [`proto`] — the message vocabulary: demand submission, admission
//!   replies, allocation installs, link-status reports, statistics.
//! * [`controller`] — admission control + scheduling + failure recovery
//!   behind a TCP listener; pushes allocations to registered brokers and
//!   recomputes on link-failure reports.
//! * [`broker`] — per-DC agent: registers with the controller, installs
//!   received allocations into its bandwidth enforcer, reports link events.
//! * [`enforcer`] — token-bucket rate limiting standing in for the
//!   switch-level meters (§4 "limits the actual traffic rate in each
//!   tunnel in case something is wrong on the end hosts").
//! * [`client`] — the user-facing API for submitting BA demands.
//!
//! What is *not* reproduced: the OpenFlow/VxLAN data plane (Floodlight,
//! Open vSwitch, label-based forwarding). Its observable effect — delivered
//! bandwidth under failures — is modeled by `bate-sim`'s dataplane; this
//! crate exercises the real control-plane path: submit → admit → allocate →
//! push → enforce → report → recover.

pub mod broker;
pub mod client;
pub mod controller;
pub mod enforcer;
pub(crate) mod event;
pub mod poller;
pub mod proto;
pub mod wire;

pub use broker::Broker;
pub use client::{Client, Dialer, PipelinedClient, RetryPolicy};
pub use controller::{Controller, ControllerConfig};
pub use wire::{Transport, WireError};
