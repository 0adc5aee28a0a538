//! The per-layer replay: a run's exact inputs — the same submits in the
//! same batches, the same withdrawals, link reports and final scheduling
//! round — fed in-process through each layer's public function, in the
//! order the controller's event loop applies them, with a benchmark-side
//! span around every call.
//!
//! The state machine mirrors the controller's: an FCFS fold per submit,
//! one warm `IncrementalScheduler::apply` per multi-submit batch while no
//! failure is in effect, `greedy_recovery` on a down report and a cold
//! `schedule_hardened` once every group is up again. Verdicts therefore
//! match the socket run whenever the controller's batches match the
//! schedule's; the mismatch count says whether they did.

use crate::drive::{frame, submit_msg};
use crate::workload::{Op, Schedule};
use bate_core::admission::admit_and_apply;
use bate_core::incremental::{DemandDelta, IncrementalScheduler, IncrementalStats};
use bate_core::recovery::greedy::greedy_recovery;
use bate_core::scheduling::{schedule_hardened, ScheduleResult};
use bate_core::{Allocation, BaDemand, DemandId, TeContext};
use bate_net::{LinkSet, Scenario};
use bate_system::client::DemandRequest;
use bate_system::proto::{FlowEntry, Message};
use bate_system::wire::{decode_payload, encode_frame, FrameAssembler};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// The controller's view of a submitted demand (`None` for a pair the
/// topology lacks — the controller rejects those without a fold).
pub fn demand(ctx: &TeContext, r: &DemandRequest) -> Option<BaDemand> {
    let pair = ctx
        .tunnels
        .pair_index(ctx.topo.find_node(&r.src)?, ctx.topo.find_node(&r.dst)?)?;
    Some(BaDemand {
        id: DemandId(r.id),
        bandwidth: vec![(pair, r.bandwidth)],
        beta: r.beta,
        price: r.price,
        refund_ratio: r.refund_ratio.clamp(0.0, 1.0),
    })
}

/// Span durations and counts gathered by the replay.
#[derive(Default)]
pub struct Layers {
    /// FCFS fold per admitted submit, µs.
    pub fold_us: Vec<f64>,
    /// FCFS fold per rejected submit, µs.
    pub reject_fold_us: Vec<f64>,
    /// Warm re-optimization per multi-submit batch, ms.
    pub apply_ms: Vec<f64>,
    pub apply_stats: IncrementalStats,
    /// Cold hardened schedule per link-up report and final round, ms.
    pub hardened_ms: Vec<f64>,
    /// Algorithm 2 per link-down report, ms.
    pub greedy_ms: Vec<f64>,
    /// Scheduling calls whose result was installed, and the pivots and
    /// iterations of each one's final master solve.
    pub installed_solves: u64,
    pub final_pivots: u64,
    pub final_iterations: u64,
    /// Wire codec, per frame, over every submit, verdict and first
    /// install of the run.
    pub encode_us: f64,
    pub decode_us: f64,
    pub bytes_per_submit: f64,
    /// Per submit id: the replayed time on its verdict's path (wire both
    /// ways, its batch's folds, solve and pushes), ms.
    pub verdict_path_ms: Vec<(u64, f64)>,
    pub verdicts: HashMap<u64, bool>,
    /// Layers the run's inputs never reached, timed instead once on the
    /// pool the run left behind.
    pub probed: Vec<&'static str>,
}

/// The controller's warm mirror of the pool (see `controller::Mirror`):
/// deltas queue on every admit and withdraw and are applied by the next
/// multi-submit batch; a failed solve drops the mirror until the pool
/// shrinks below the size that failed.
#[derive(Default)]
struct Mirror {
    sched: Option<IncrementalScheduler>,
    pending: Vec<DemandDelta>,
    poisoned_at: Option<usize>,
}

struct State<'a> {
    ctx: &'a TeContext<'a>,
    demands: Vec<BaDemand>,
    allocation: Allocation,
    failed: LinkSet,
    mirror: Mirror,
    layers: Layers,
    /// Messages whose codec cost the wire layer measures.
    submits: Vec<Message>,
    replies: Vec<Message>,
    installs: Vec<Message>,
    /// Per batch: submit ids, summed fold µs, solve ms, install frames pushed.
    batches: Vec<(Vec<u64>, f64, f64, usize)>,
}

fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

impl<'a> State<'a> {
    /// A fresh controller's pool: empty, every link up, no warm mirror.
    fn reset(&mut self) {
        self.demands.clear();
        self.allocation = Allocation::new();
        self.failed = LinkSet::new(self.ctx.topo.num_groups());
        self.mirror = Mirror::default();
    }

    fn install_msg(&self, id: DemandId) -> Message {
        let entries = self
            .allocation
            .flows_of(id)
            .map(|(t, f)| FlowEntry {
                pair: t.pair as u32,
                tunnel: t.tunnel as u32,
                rate: f,
            })
            .collect();
        Message::InstallAllocation {
            demand: id.0,
            entries,
        }
    }

    fn note_result(&mut self, res: &ScheduleResult) {
        self.layers.installed_solves += 1;
        self.layers.final_pivots += res.solve_stats.pivots;
        self.layers.final_iterations += res.solve_stats.iterations();
    }

    fn submit_batch(&mut self, reqs: &[DemandRequest]) {
        let mut fold_us = 0.0;
        let mut fresh = 0;
        let mut pushed = 0;
        for r in reqs {
            self.submits.push(submit_msg(r));
            let admitted = match demand(self.ctx, r) {
                Some(d) => {
                    let t0 = Instant::now();
                    let ok = admit_and_apply(self.ctx, &mut self.demands, &mut self.allocation, &d);
                    let us = t0.elapsed().as_secs_f64() * 1e6;
                    fold_us += us;
                    if ok {
                        self.layers.fold_us.push(us);
                        self.mirror.pending.push(DemandDelta::Add(d.clone()));
                        fresh += 1;
                        pushed += 1;
                        self.installs.push(self.install_msg(d.id));
                    } else {
                        self.layers.reject_fold_us.push(us);
                    }
                    ok
                }
                None => false,
            };
            self.layers.verdicts.insert(r.id, admitted);
            self.replies
                .push(Message::AdmissionReply { id: r.id, admitted });
        }
        let mut solve_ms = 0.0;
        if reqs.len() > 1 && fresh > 0 && self.failed.is_empty() {
            if let Some((ms, res)) = self.mirror_solve() {
                solve_ms = ms;
                self.note_result(&res);
                self.allocation = res.allocation;
                pushed = self.demands.len();
            }
        }
        self.batches.push((
            reqs.iter().map(|r| r.id).collect(),
            fold_us,
            solve_ms,
            pushed,
        ));
    }

    /// `controller::Mirror::solve`, timed around the `apply` call.
    fn mirror_solve(&mut self) -> Option<(f64, ScheduleResult)> {
        let m = &mut self.mirror;
        if let Some(at) = m.poisoned_at {
            if self.demands.len() >= at {
                return None;
            }
            m.poisoned_at = None;
        }
        if m.sched.is_none() {
            m.pending = self
                .demands
                .iter()
                .map(|d| DemandDelta::Add(d.clone()))
                .collect();
            m.sched = Some(IncrementalScheduler::new(self.ctx));
        }
        let deltas = std::mem::take(&mut m.pending);
        let sched = m.sched.as_mut().expect("mirror built above");
        let before = sched.stats();
        let t0 = Instant::now();
        let res = sched.apply(self.ctx, &deltas);
        let ms = ms_since(t0);
        add_stats(&mut self.layers.apply_stats, before, sched.stats());
        self.layers.apply_ms.push(ms);
        match res {
            Ok(res) => Some((ms, res)),
            Err(_) => {
                m.sched = None;
                m.pending.clear();
                m.poisoned_at = Some(self.demands.len());
                None
            }
        }
    }

    fn withdraw(&mut self, id: u64) {
        let was_present = self.demands.iter().any(|d| d.id.0 == id);
        self.demands.retain(|d| d.id.0 != id);
        self.allocation.remove_demand(DemandId(id));
        if was_present {
            self.mirror.pending.push(DemandDelta::Remove(DemandId(id)));
        }
    }

    fn link(&mut self, group: usize, up: bool) {
        if group >= self.ctx.topo.num_groups() {
            return;
        }
        if up {
            self.failed.remove(group);
        } else {
            self.failed.insert(group);
        }
        if self.demands.is_empty() {
            return;
        }
        if self.failed.is_empty() {
            self.hardened_round();
        } else {
            let scenario = Scenario {
                failed: self.failed.clone(),
                probability: 0.0,
            };
            let t0 = Instant::now();
            let out = greedy_recovery(self.ctx, &self.demands, &scenario);
            self.layers.greedy_ms.push(ms_since(t0));
            self.allocation = out.allocation;
        }
    }

    fn hardened_round(&mut self) {
        let t0 = Instant::now();
        let res = schedule_hardened(self.ctx, &self.demands);
        self.layers.hardened_ms.push(ms_since(t0));
        if let Ok(res) = res {
            self.note_result(&res);
            self.allocation = res.allocation;
        }
    }
}

fn add_stats(acc: &mut IncrementalStats, before: IncrementalStats, after: IncrementalStats) {
    acc.deltas += after.deltas - before.deltas;
    acc.warm_rounds += after.warm_rounds - before.warm_rounds;
    acc.cold_rounds += after.cold_rounds - before.cold_rounds;
    acc.cert_fallbacks += after.cert_fallbacks - before.cert_fallbacks;
}

/// Replay `scheds` through the layers, each on a fresh pool as on its own
/// controller. Each ends with the scheduling round the end-of-run check
/// asks its controller for.
pub fn run(ctx: &TeContext, scheds: &[&Schedule]) -> Layers {
    let mut st = State {
        ctx,
        demands: Vec::new(),
        allocation: Allocation::new(),
        failed: LinkSet::new(ctx.topo.num_groups()),
        mirror: Mirror::default(),
        layers: Layers::default(),
        submits: Vec::new(),
        replies: Vec::new(),
        installs: Vec::new(),
        batches: Vec::new(),
    };
    for sched in scheds {
        st.reset();
        for ev in sched.all() {
            match &ev.op {
                Op::Submit(reqs) => st.submit_batch(reqs),
                Op::Withdraw(ids) => ids.iter().for_each(|&id| st.withdraw(id)),
                Op::Link { group, up, .. } => st.link(*group as usize, *up),
                Op::Probe { .. } => {}
            }
        }
        if !st.demands.is_empty() && st.failed.is_empty() {
            st.hardened_round();
        }
    }
    if let Some(last) = scheds.last() {
        probe_unreached(&mut st, last);
    }
    wire(&mut st);
    st.layers
}

/// Time, on the pool the last schedule left behind, each layer the run
/// never called, so every layer reports a measurement on every workload.
fn probe_unreached(st: &mut State, sched: &Schedule) {
    if st.layers.apply_ms.is_empty() && !st.demands.is_empty() {
        // The warm mirror's first build: the whole pool as one batch.
        let mut fresh = IncrementalScheduler::new(st.ctx);
        let deltas: Vec<DemandDelta> = st
            .demands
            .iter()
            .map(|d| DemandDelta::Add(d.clone()))
            .collect();
        let t0 = Instant::now();
        black_box(fresh.apply(st.ctx, &deltas).ok());
        st.layers.apply_ms.push(ms_since(t0));
        add_stats(
            &mut st.layers.apply_stats,
            IncrementalStats::default(),
            fresh.stats(),
        );
        st.layers.probed.push("incremental");
    }
    if st.layers.reject_fold_us.is_empty() {
        // Fold the run's own demands again, under fresh ids, into a copy
        // of the final pool until one is refused.
        let mut demands = st.demands.clone();
        let mut allocation = st.allocation.clone();
        for (_, r) in sched.submits() {
            let Some(mut d) = demand(st.ctx, r) else {
                continue;
            };
            d.id = DemandId(r.id + (1 << 40));
            let t0 = Instant::now();
            if !admit_and_apply(st.ctx, &mut demands, &mut allocation, &d) {
                st.layers
                    .reject_fold_us
                    .push(t0.elapsed().as_secs_f64() * 1e6);
                st.layers.probed.push("admission.reject");
                break;
            }
        }
    }
}

/// Per-frame codec cost over the run's frames (median of five passes),
/// and each submit's replayed verdict path.
fn wire(st: &mut State) {
    let kinds = [&st.submits, &st.replies, &st.installs];
    let frames: Vec<Vec<Vec<u8>>> = kinds
        .iter()
        .map(|msgs| msgs.iter().map(frame).collect())
        .collect();
    let mut enc = [Vec::new(), Vec::new(), Vec::new()];
    let mut dec = [Vec::new(), Vec::new(), Vec::new()];
    for _ in 0..5 {
        for k in 0..3 {
            let t0 = Instant::now();
            for m in kinds[k].iter() {
                black_box(encode_frame(black_box(m)).ok());
            }
            enc[k].push(t0.elapsed().as_secs_f64() * 1e6);
            let t0 = Instant::now();
            let mut asm = FrameAssembler::new();
            for f in &frames[k] {
                asm.push(black_box(f));
                if let Ok(Some((_, payload))) = asm.next_frame() {
                    black_box(decode_payload::<Message>(payload).ok());
                }
            }
            dec[k].push(t0.elapsed().as_secs_f64() * 1e6);
        }
    }
    let per_frame =
        |k: usize, v: &mut Vec<f64>| crate::stats::median(v) / frames[k].len().max(1) as f64;
    let enc_f: Vec<f64> = (0..3).map(|k| per_frame(k, &mut enc[k])).collect();
    let dec_f: Vec<f64> = (0..3).map(|k| per_frame(k, &mut dec[k])).collect();
    let n: Vec<f64> = frames.iter().map(|f| f.len() as f64).collect();
    let total: f64 = n.iter().sum::<f64>().max(1.0);
    st.layers.encode_us = (0..3).map(|k| enc_f[k] * n[k]).sum::<f64>() / total;
    st.layers.decode_us = (0..3).map(|k| dec_f[k] * n[k]).sum::<f64>() / total;
    st.layers.bytes_per_submit =
        frames[0].iter().map(|f| f.len() as f64).sum::<f64>() / n[0].max(1.0);

    // The verdict waits for its batch's folds, solve and pushes: replies
    // are flushed after the whole batch.
    let codec_us = enc_f[0] + dec_f[0] + enc_f[1] + dec_f[1];
    for (ids, fold_us, solve_ms, pushed) in &st.batches {
        let path_ms = (codec_us + fold_us + *pushed as f64 * enc_f[2]) / 1e3 + solve_ms;
        st.layers
            .verdict_path_ms
            .extend(ids.iter().map(|&id| (id, path_ms)));
    }
}
