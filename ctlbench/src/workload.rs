//! Seeded open-loop schedules. Every input of a run — arrivals, demand
//! fields, lifetimes (hence withdrawals), link reports and probes — is a
//! pure function of the workload name, the seed and the horizon, so the
//! pool size is a property of the workload, not of how fast the
//! controller answers.

use bate_net::Topology;
use bate_sim::loadgen::{schedule, LoadProfile};
use bate_system::client::DemandRequest;

/// What one scheduled event writes.
#[derive(Debug, Clone)]
pub enum Op {
    /// `SubmitDemand` frames written in one write on the client
    /// connection (one frame on `paced`/`flap`, a group on `flash`).
    Submit(Vec<DemandRequest>),
    /// `WithdrawDemand` frames written in one write on the client
    /// connection.
    Withdraw(Vec<u64>),
    /// A `LinkReport` followed by `Ping { token }` in one write on the
    /// broker connection: the `Pong` arrives behind every install the
    /// report caused.
    Link { group: u32, up: bool, token: u64 },
    /// A bare `Ping { token }` on the broker connection (traced runs):
    /// its `Pong` measures how long the event loop kept it waiting.
    Probe { token: u64 },
}

/// One event, due `due` seconds after the phase starts.
#[derive(Debug, Clone)]
pub struct Event {
    pub due: f64,
    pub op: Op,
}

/// The inputs of one segment of a run: a warm-up that brings the pool to
/// its steady size, then the measured window (open loop), then — on
/// workloads whose load reports no failures — a closed-loop failover
/// probe.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// The open-loop load, sorted by due time.
    pub events: Vec<Event>,
    /// Submits due in this window give the verdict, install, rate and
    /// admission figures, and on `flap` its link reports the recovery and
    /// repair figures.
    pub window: (f64, f64),
    /// Failover probe steps (their `due` is unused): each is sent once
    /// the previous one is answered. Every cycle withdraws the previous
    /// pool, submits a fresh pool drawn like the workload's own demands
    /// in one write, then reports one fate group down and up again, so
    /// recovery and repair are measured on many pools without admissions
    /// racing a failure. Empty on `flap`.
    pub probe: Vec<Event>,
}

/// `steady` is `paced` with 10–50 Mbps demands: far from link capacity,
/// so nothing is rejected and every final round keeps every target. On
/// `paced` and `flap` the controller fails some seeds' output check (see
/// the README), so they run here but are not in `BENCHMARK.json`.
pub const WORKLOADS: [&str; 4] = ["steady", "flash", "paced", "flap"];

/// `flash` arrivals: groups of this many demands…
const FLASH_GROUP: usize = 32;
/// …one group every this many seconds…
const FLASH_PERIOD: f64 = 0.2;
/// …each withdrawn this long after it arrived.
const FLASH_LIFE: f64 = 0.5;
/// `flap`: one fate group goes down every this many seconds…
const FLAP_PERIOD: f64 = 0.5;
/// …and comes back up this much later.
const FLAP_DOWN_FOR: f64 = 0.2;
/// Ids of probe pools start this far above the load's first id.
const PROBE_IDS: u64 = 1 << 32;
/// Traced runs probe the event loop this often.
const PROBE_PERIOD: f64 = 0.02;

/// SplitMix64: the benchmark's own seeded stream for lifetimes and fate
/// groups (the arrival stream comes from `bate_sim::loadgen`).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Exponential with the given mean.
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Ping tokens: link reports and probes draw from one counter so every
/// `Pong` names exactly one event.
struct Tokens(u64);

impl Tokens {
    fn next(&mut self) -> u64 {
        self.0 += 1;
        self.0
    }
}

/// The demand stream of a steady `bate_sim::loadgen` profile.
pub fn arrivals(
    topo: &Topology,
    per_s: f64,
    bandwidth: (f64, f64),
    horizon: f64,
    seed: u64,
    first_id: u64,
) -> Vec<(f64, DemandRequest)> {
    let mut profile = LoadProfile::steady(per_s * 60.0, LoadProfile::all_pairs(topo), seed);
    profile.bandwidth = bandwidth;
    schedule(&profile, horizon, first_id)
        .into_iter()
        .map(|e| {
            let req = DemandRequest::new(e.id, &e.src, &e.dst, e.bandwidth, e.beta);
            (e.offset_s, req)
        })
        .collect()
}

/// Single submits at a jittered steady `per_s`, each withdrawn after an
/// exponential lifetime of mean `mean_life` seconds, sorted by due time;
/// demand ids start at `first_id`.
/// Withdrawals are scheduled whatever the verdict: the client cannot know
/// it when the withdrawal is scheduled, and the controller acks either
/// way.
pub fn steady(
    topo: &Topology,
    seed: u64,
    horizon: f64,
    per_s: f64,
    bandwidth: (f64, f64),
    mean_life: f64,
    first_id: u64,
) -> Vec<Event> {
    let mut life = Rng::new(seed, 1);
    let mut load = Vec::new();
    for (t, req) in arrivals(topo, per_s, bandwidth, horizon, seed, first_id) {
        let end = t + life.exp(mean_life);
        let id = req.id;
        load.push(Event {
            due: t,
            op: Op::Submit(vec![req]),
        });
        if end < horizon {
            load.push(Event {
                due: end,
                op: Op::Withdraw(vec![id]),
            });
        }
    }
    by_due(load)
}

/// Sort by due time; stable, so events due at the same instant keep their
/// generation order.
fn by_due(mut events: Vec<Event>) -> Vec<Event> {
    events.sort_by(|a, b| a.due.total_cmp(&b.due));
    events
}

/// Groups of `FLASH_GROUP` demands, one group per `FLASH_PERIOD`; each
/// group is withdrawn in one write `FLASH_LIFE` after it arrived, so every
/// batch meets the same pool size. (A random lifetime shared by the group
/// swung the pool between empty and several groups, and the warm solve's
/// cost with it: the verdict median moved by up to 2.3x between seeds.
/// Independent exponential lifetimes per demand left the segment medians
/// with a spread of 0.20 of their mean; this fixed lifetime, 0.14.)
fn flash(topo: &Topology, seed: u64, horizon: f64, first_id: u64) -> Vec<Event> {
    let mut load = Vec::new();
    // Demand fields from the same generator, regrouped: arrival offsets
    // are replaced by the group's due time.
    let rate = FLASH_GROUP as f64 / FLASH_PERIOD;
    let mut reqs = arrivals(
        topo,
        rate,
        (10.0, 50.0),
        2.0 * horizon + 1.0,
        seed,
        first_id,
    )
    .into_iter();
    let mut t = FLASH_PERIOD / 2.0;
    while t < horizon {
        let group: Vec<DemandRequest> = reqs.by_ref().take(FLASH_GROUP).map(|(_, r)| r).collect();
        if t + FLASH_LIFE < horizon {
            load.push(Event {
                due: t + FLASH_LIFE,
                op: Op::Withdraw(group.iter().map(|r| r.id).collect()),
            });
        }
        load.push(Event {
            due: t,
            op: Op::Submit(group),
        });
        t += FLASH_PERIOD;
    }
    load
}

/// Build the schedule of `workload` with a measured window of `seconds`
/// and `probe_cycles` failover probe cycles; demand ids start at
/// `first_id`. `None` for an unknown workload name.
pub fn build(
    workload: &str,
    topo: &Topology,
    seed: u64,
    seconds: f64,
    traced: bool,
    probe_cycles: usize,
    first_id: u64,
) -> Option<Schedule> {
    // Warm-up: three mean lifetimes on `paced`/`flash`, two on `flap`
    // (the pool is then within 5% and 14% of its steady size). Probe
    // pools hold the workload's mean pool size.
    let (warmup, pool, bandwidth) = match workload {
        "steady" => (1.5, 50, (10.0, 50.0)),
        "paced" => (1.5, 50, (100.0, 300.0)),
        "flash" => (1.5, 80, (10.0, 50.0)),
        "flap" => (4.0, 0, (10.0, 50.0)),
        _ => return None,
    };
    let window = (warmup, warmup + seconds);
    let mut events = match workload {
        "steady" | "paced" => steady(topo, seed, window.1, 100.0, bandwidth, 0.5, first_id),
        "flash" => flash(topo, seed, window.1, first_id),
        _ => steady(topo, seed, window.1, 50.0, bandwidth, 2.0, first_id),
    };
    let mut fate = Rng::new(seed, 2);
    let mut tokens = Tokens(0);
    let groups = topo.num_groups() as u64;
    let mut flap = |t: f64, down_for: f64, tokens: &mut Tokens, out: &mut Vec<Event>| {
        let group = fate.below(groups) as u32;
        out.push(Event {
            due: t,
            op: Op::Link {
                group,
                up: false,
                token: tokens.next(),
            },
        });
        out.push(Event {
            due: t + down_for,
            op: Op::Link {
                group,
                up: true,
                token: tokens.next(),
            },
        });
    };
    if workload == "flap" {
        let mut t = FLAP_PERIOD / 2.0;
        while t + FLAP_DOWN_FOR < window.1 {
            flap(t, FLAP_DOWN_FOR, &mut tokens, &mut events);
            t += FLAP_PERIOD;
        }
    }
    if traced {
        let mut t = PROBE_PERIOD / 2.0;
        while t < window.1 {
            events.push(Event {
                due: t,
                op: Op::Probe {
                    token: tokens.next(),
                },
            });
            t += PROBE_PERIOD;
        }
    }
    let events = by_due(events);

    let mut probe = Vec::new();
    if pool > 0 {
        // Everything the load left live, whatever its verdict.
        let mut withdrawn: Vec<u64> = events
            .iter()
            .flat_map(|e| match &e.op {
                Op::Withdraw(ids) => ids.clone(),
                _ => Vec::new(),
            })
            .collect();
        withdrawn.sort_unstable();
        let mut live: Vec<u64> = events
            .iter()
            .flat_map(|e| match &e.op {
                Op::Submit(reqs) => reqs.iter().map(|r| r.id).collect(),
                _ => Vec::new(),
            })
            .filter(|id| withdrawn.binary_search(id).is_err())
            .collect();
        // A horizon long enough for every cycle's pool at any jitter.
        let n = probe_cycles * pool;
        let mut fresh = arrivals(
            topo,
            100.0,
            bandwidth,
            2.0 * n as f64 / 100.0 + 1.0,
            seed ^ 0x5EED,
            first_id + PROBE_IDS,
        )
        .into_iter()
        .map(|(_, r)| r);
        for _ in 0..probe_cycles {
            let reqs: Vec<DemandRequest> = fresh.by_ref().take(pool).collect();
            probe.push(Event {
                due: 0.0,
                op: Op::Withdraw(std::mem::take(&mut live)),
            });
            live = reqs.iter().map(|r| r.id).collect();
            probe.push(Event {
                due: 0.0,
                op: Op::Submit(reqs),
            });
            flap(0.0, 0.0, &mut tokens, &mut probe);
        }
    }
    Some(Schedule {
        events,
        window,
        probe,
    })
}

impl Schedule {
    /// Every event of the run in the order it is sent: the load, then
    /// the probe.
    pub fn all(&self) -> impl Iterator<Item = &Event> {
        self.events.iter().chain(&self.probe)
    }

    /// Whether an event due at `due` falls in the measured window.
    pub fn in_window(&self, due: f64) -> bool {
        due >= self.window.0 && due < self.window.1
    }

    /// Submits, withdrawals and link reports among `events`.
    pub fn counts(events: &[Event]) -> (usize, usize, usize) {
        events.iter().fold((0, 0, 0), |(s, w, l), e| match &e.op {
            Op::Submit(reqs) => (s + reqs.len(), w, l),
            Op::Withdraw(ids) => (s, w + ids.len(), l),
            Op::Link { .. } => (s, w, l + 1),
            Op::Probe { .. } => (s, w, l),
        })
    }

    /// Every submitted demand with its due time, in submission order.
    pub fn submits(&self) -> impl Iterator<Item = (f64, &DemandRequest)> {
        self.all().flat_map(|e| match &e.op {
            Op::Submit(reqs) => reqs.iter().map(|r| (e.due, r)).collect::<Vec<_>>(),
            _ => Vec::new(),
        })
    }
}
