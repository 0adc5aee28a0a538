//! The end-of-run output check. Every failure it finds is one failed
//! operation:
//!
//! * every submit got exactly one verdict, in submission order, and every
//!   withdrawal and link report was answered;
//! * the broker's installed set equals the live admitted set;
//! * after one `Controller::run_schedule_round()`, the allocation the
//!   broker holds, rebuilt from its `FlowEntry`s, respects every link's
//!   capacity and meets every live demand's availability target.

use crate::drive::Session;
use crate::replay::demand;
use crate::workload::{Op, Schedule};
use bate_core::{Allocation, DemandId, TeContext};
use bate_routing::TunnelId;
use bate_system::Controller;
use std::collections::{HashMap, HashSet};
use std::time::Duration;

/// Relative slack on link capacity (float sums of rates).
const CAPACITY_TOL: f64 = 1e-6;

/// A failed check: one line of the report and the operations it fails.
pub struct Failure {
    pub what: String,
    pub ops: u64,
}

fn fail(out: &mut Vec<Failure>, ops: u64, what: String) {
    if ops > 0 {
        out.push(Failure { what, ops });
    }
}

/// Check what the session saw against what the schedule sent. Runs the
/// final scheduling round on `ctrl` (unless it stopped answering), so it
/// comes after every measurement.
pub fn run(
    ctrl: &Controller,
    session: &Session,
    ctx: &TeContext,
    sched: &Schedule,
    responsive: bool,
) -> Vec<Failure> {
    let mut out = Vec::new();
    let submitted: Vec<u64> = sched.submits().map(|(_, r)| r.id).collect();
    let mut withdrawn: Vec<u64> = Vec::new();
    let mut tokens: Vec<u64> = Vec::new();
    for ev in sched.all() {
        match &ev.op {
            Op::Withdraw(ids) => withdrawn.extend(ids),
            Op::Link { token, .. } | Op::Probe { token } => tokens.push(*token),
            Op::Submit(_) => {}
        }
    }

    let seen = session.seen();
    // Exactly one verdict per submit, in order.
    let mut count: HashMap<u64, u32> = HashMap::new();
    for &(id, _, _) in &seen.verdicts {
        *count.entry(id).or_default() += 1;
    }
    let missing = submitted
        .iter()
        .filter(|id| !count.contains_key(id))
        .count();
    fail(
        &mut out,
        missing as u64,
        format!("{missing} submits got no verdict"),
    );
    let extra: u32 = count.values().map(|&c| c - 1).sum::<u32>()
        + seen
            .verdicts
            .iter()
            .filter(|v| !submitted.contains(&v.0))
            .count() as u32;
    fail(
        &mut out,
        extra as u64,
        format!("{extra} verdicts duplicated or unrequested"),
    );
    let answered: Vec<u64> = submitted
        .iter()
        .copied()
        .filter(|id| count.contains_key(id))
        .collect();
    let mut firsts = Vec::with_capacity(answered.len());
    let mut once = HashSet::new();
    for &(id, _, _) in &seen.verdicts {
        if once.insert(id) {
            firsts.push(id);
        }
    }
    let out_of_order = answered.iter().zip(&firsts).filter(|(a, b)| a != b).count();
    fail(
        &mut out,
        out_of_order as u64,
        format!("{out_of_order} verdicts out of submission order"),
    );

    let acked: HashSet<u64> = seen.acks.iter().copied().collect();
    let unacked = withdrawn.iter().filter(|id| !acked.contains(id)).count()
        + seen.acks.len().saturating_sub(withdrawn.len());
    fail(
        &mut out,
        unacked as u64,
        format!("{unacked} withdrawals unanswered or answered twice"),
    );
    let unponged = tokens
        .iter()
        .filter(|t| !seen.pongs.contains_key(t))
        .count();
    fail(
        &mut out,
        unponged as u64,
        format!("{unponged} link reports or probes unanswered"),
    );
    fail(
        &mut out,
        seen.errors,
        format!("{} socket or decode errors", seen.errors),
    );

    // The broker holds exactly the live admitted set.
    let withdrawn: HashSet<u64> = withdrawn.into_iter().collect();
    let live: HashSet<u64> = seen
        .verdicts
        .iter()
        .filter(|v| v.1 && !withdrawn.contains(&v.0))
        .map(|v| v.0)
        .collect();
    let installed: HashSet<u64> = seen.installed.keys().copied().collect();
    let stray = live.symmetric_difference(&installed).count();
    fail(
        &mut out,
        stray as u64,
        format!("{stray} demands differ between the broker and the live admitted set"),
    );
    drop(seen);

    if !responsive {
        fail(
            &mut out,
            1,
            "controller stopped answering; final round skipped".to_string(),
        );
        return out;
    }
    // One scheduling round, then the broker's allocation must be valid.
    ctrl.run_schedule_round();
    if !session.sync_broker(u64::MAX, Duration::from_secs(30)) {
        fail(
            &mut out,
            1,
            "broker did not sync after the final round".to_string(),
        );
        return out;
    }
    let seen = session.seen();
    let mut alloc = Allocation::new();
    for (&id, entries) in &seen.installed {
        for e in entries {
            let t = TunnelId {
                pair: e.pair as usize,
                tunnel: e.tunnel as usize,
            };
            alloc.set(DemandId(id), t, e.rate);
        }
    }
    if !alloc.respects_capacity(ctx, CAPACITY_TOL) {
        fail(
            &mut out,
            1,
            "installed allocation exceeds link capacity".to_string(),
        );
    }
    let short: Vec<u64> = sched
        .submits()
        .filter(|(_, r)| live.contains(&r.id))
        .filter_map(|(_, r)| demand(ctx, r))
        .filter(|d| !alloc.meets_target(ctx, d))
        .map(|d| d.id.0)
        .collect();
    fail(
        &mut out,
        short.len() as u64,
        format!(
            "{} live demands miss their availability target: {:?}",
            short.len(),
            short
        ),
    );
    out
}
