//! ctlbench — an open-loop benchmark of the BATE controller as its
//! clients and brokers see it.
//!
//! A run is a few segments. Each starts an in-process `Controller` on
//! `testbed6` (`ksp4`, y = 2) and drives it over real sockets from a
//! seeded schedule: one client connection carries submits and
//! withdrawals, one raw broker connection reports link failures and
//! records every install. Every latency is timed from the moment its
//! request was due, not sent. Each segment ends with an output check
//! (`check`), and a traced run (`--trace 1`) also probes the event loop,
//! reads the controller's counters over its stats RPC and replays the
//! run's exact inputs through each layer (`replay`).
//!
//! ```text
//! cargo run --release --offline --manifest-path ctlbench/Cargo.toml -- \
//!     --workload steady|flash|paced|flap --seed N --seconds S --trace 0|1
//! cargo run --release --offline --manifest-path ctlbench/Cargo.toml -- \
//!     --sweep --seed N --seconds S
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. The exit code is 1
//! when the output check fails and 3 when the load generator ran later
//! than its limit (the run is then invalid and prints no result).

mod check;
mod drive;
mod record;
mod replay;
mod stats;
mod workload;

use bate_core::TeContext;
use bate_net::{topologies, ScenarioSet, Topology};
use bate_routing::{RoutingScheme, TunnelSet};
use bate_system::proto::Message;
use bate_system::{Controller, ControllerConfig};
use drive::{Seen, Session};
use stats::{median, quantile, ratio, Delta};
use std::collections::HashMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{Event, Op, Schedule};

/// Scenario pruning depth of the controller under test.
const MAX_FAILURES: usize = 2;
/// Set-ups before each segment; `setup_s` is the median of all of them.
/// (One set-up takes under a millisecond, and on a shared VM its time
/// jumps between levels about 1.8x apart from one moment to the next;
/// set-ups spread over the run sample more of those moments.)
const SETUP_REPS: usize = 21;
/// Segments per run, each on a fresh controller with a seed of its own
/// and `--seconds / SEGMENTS` of measured load. `verdict_p50_ms`,
/// `install_p50_ms` and `achieved_per_s` are medians over segments of
/// each segment's figure:
/// on some `flash` seeds one warm solve stalls the event loop for 10 s
/// or more, which moved a whole run's median by up to 2x; the tails
/// (pooled over segments) still show it.
const SEGMENTS: u64 = 5;
/// Demand ids of segment k start at `k * SEGMENT_IDS + 1`, so ids are
/// unique over a run.
const SEGMENT_IDS: u64 = 1 << 40;
/// Failover probe cycles per segment (on every workload but `flap`).
const PROBE_CYCLES: usize = 13;
/// How long after its last event a phase may take to be answered (the
/// warm solve has stalled the event loop for over 10 s on some `flash`
/// seeds; those runs still count).
const DRAIN: Duration = Duration::from_secs(60);
/// Lead between scheduling a phase and its time zero.
const LEAD: Duration = Duration::from_millis(50);
/// A run whose generator was later than this at p99 is invalid.
const LATE_P99_LIMIT_MS: f64 = 20.0;
/// The end-to-end metrics the JSON result carries (`BENCHMARK.json`
/// gates each by a bound). The others are printed by name and unit on
/// every run but not gated: on one workload or both their spread over
/// ten seeds came near or over the largest bound the benchmark may set
/// (0.25 of the median) on a 2-vCPU Xeon VM (see the README).
const GATED: [&str; 5] = [
    "setup_s",
    "verdict_p50_ms",
    "install_p50_ms",
    "achieved_per_s",
    "admitted_frac",
];
/// Sweep: the verdict p99 a step must keep to count below the knee.
const SWEEP_SLO_P99_MS: f64 = 50.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    sweep: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        sweep: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--sweep" {
            args.sweep = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    if !args.sweep && !workload::WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {:?}",
            workload::WORKLOADS
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\nusage: ctlbench --workload steady|flash|paced|flap --seed N --seconds S --trace 0|1\n       ctlbench --sweep --seed N --seconds S");
            return ExitCode::from(2);
        }
    };
    let result = if args.sweep { sweep(&args) } else { run(&args) };
    result.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::from(1)
    })
}

/// The benchmark's own copy of the controller's routing inputs, for the
/// output check and the replay.
struct Net {
    topo: Topology,
    tunnels: TunnelSet,
    scenarios: ScenarioSet,
}

impl Net {
    fn new() -> Net {
        let topo = topologies::testbed6();
        let tunnels = TunnelSet::compute(&topo, RoutingScheme::default_ksp4());
        let scenarios = ScenarioSet::enumerate(&topo, MAX_FAILURES);
        Net {
            topo,
            tunnels,
            scenarios,
        }
    }

    fn ctx(&self) -> TeContext<'_> {
        TeContext::new(&self.topo, &self.tunnels, &self.scenarios)
    }
}

/// Start a controller on `testbed6` and open both connections.
fn open() -> std::io::Result<(Controller, Session)> {
    let ctrl = Controller::start(ControllerConfig::manual(
        topologies::testbed6(),
        RoutingScheme::default_ksp4(),
        MAX_FAILURES,
    ))?;
    let session = Session::open(&ctrl)?;
    Ok((ctrl, session))
}

/// Append to `times` the time in seconds of each of `SETUP_REPS`
/// set-ups (`open`), each torn down before the next.
fn setup_times(times: &mut Vec<f64>) -> std::io::Result<()> {
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let (ctrl, session) = open()?;
        times.push(t0.elapsed().as_secs_f64());
        drop(session);
        drop(ctrl);
    }
    Ok(())
}

/// A counter snapshot over the client connection's stats RPC.
fn stats_rpc(session: &Session) -> std::io::Result<String> {
    let have = session.seen().stats.len();
    session.send_client(&Message::StatsJsonQuery {
        prefix: "bate_".to_string(),
    })?;
    if !session.wait(Instant::now() + DRAIN, |s| s.stats.len() > have) {
        return Err(std::io::Error::new(
            std::io::ErrorKind::TimedOut,
            "stats RPC",
        ));
    }
    Ok(session.seen().stats[have].clone())
}

/// Ping tokens a phase waits for.
fn tokens(events: &[Event]) -> Vec<u64> {
    events
        .iter()
        .filter_map(|e| match e.op {
            Op::Link { token, .. } | Op::Probe { token } => Some(token),
            _ => None,
        })
        .collect()
}

/// Send every event when due, then wait until every submit, withdrawal
/// and ping is answered or the drain deadline passes. Returns time zero,
/// the send instants and whether everything was answered.
fn phase(
    session: &Session,
    events: &[Event],
    submits: usize,
    withdraws: usize,
) -> (Instant, Vec<Option<Instant>>, bool) {
    let start = Instant::now() + LEAD;
    let sent = session.send(events, start);
    let want = tokens(events);
    let drained = session.wait(Instant::now() + DRAIN, |s| {
        s.verdicts.len() >= submits
            && s.acks.len() >= withdraws
            && want.iter().all(|t| s.pongs.contains_key(t))
    });
    (start, sent, drained)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `at − (start + due)` in ms, for a reply to an event due at `due`.
fn since_due(at: Instant, start: Instant, due: f64) -> f64 {
    let due = start + Duration::from_secs_f64(due);
    if at >= due {
        ms(at - due)
    } else {
        -ms(due - at)
    }
}

/// Latency from each link report's due instant to the `Pong` behind it,
/// split into down (recovery) and up (repair) reports.
fn link_latency<'a>(
    events: impl Iterator<Item = (&'a Event, Instant)>,
    seen: &Seen,
) -> (Vec<f64>, Vec<f64>) {
    let (mut down, mut up) = (Vec::new(), Vec::new());
    for (e, due) in events {
        if let Op::Link {
            up: is_up, token, ..
        } = e.op
        {
            if let Some(&at) = seen.pongs.get(&token) {
                let v = ms(at.saturating_duration_since(due));
                if is_up {
                    up.push(v)
                } else {
                    down.push(v)
                }
            }
        }
    }
    (down, up)
}

/// Generator lateness, ms, over every event that was written.
fn lateness(events: &[Event], start: Instant, sent: &[Option<Instant>]) -> Vec<f64> {
    events
        .iter()
        .zip(sent)
        .filter_map(|(e, s)| s.map(|at| since_due(at, start, e.due).max(0.0)))
        .collect()
}

/// One metric: name, unit, value, and the sample count behind it.
struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
    n: Option<usize>,
}

/// Metrics in print order.
#[derive(Default)]
struct Report(Vec<Metric>);

impl Report {
    fn put(&mut self, name: &str, unit: &'static str, value: f64) {
        self.0.push(Metric {
            name: name.to_string(),
            unit,
            value,
            n: None,
        });
    }

    /// A value computed from `n` samples.
    fn put_n(&mut self, name: &str, unit: &'static str, value: f64, n: usize) {
        self.0.push(Metric {
            name: name.to_string(),
            unit,
            value,
            n: Some(n),
        });
    }

    /// A quantile of `samples`, noting how many there were.
    fn q(&mut self, name: &str, unit: &'static str, samples: &[f64], q: f64) {
        let value = quantile(&mut samples.to_vec(), q);
        self.put_n(name, unit, value, samples.len());
    }

    fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    }

    /// Print every metric; `note` marks those left out of the JSON.
    fn print(&self, note: impl Fn(&str) -> &'static str) {
        for m in &self.0 {
            let n = m.n.map(|n| format!("(n={n})")).unwrap_or_default();
            println!(
                "metric {:<32} {:>14.6} {:<6} {n} {}",
                m.name,
                m.value,
                m.unit,
                note(&m.name)
            );
        }
    }

    /// The JSON `metrics` object over the metrics `keep` selects.
    fn json(&self, keep: impl Fn(&str) -> bool) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .filter(|m| keep(&m.name))
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    num(m.value),
                    m.unit
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// One segment of a run: a fresh controller driven through its own
/// schedule, then checked.
struct Segment {
    sched: Schedule,
    /// Time zero of the load.
    start: Instant,
    /// Send instants of the load's events and of the probe's steps.
    sent: Vec<Option<Instant>>,
    probe_sent: Vec<Option<Instant>>,
    probe_s: f64,
    seen: Seen,
    failures: Vec<check::Failure>,
    /// Whether the controller answered everything in time.
    responsive: bool,
}

/// Drive `sched` against a fresh controller and check the outcome; on a
/// traced run add the controller's counter growth to `rpc`.
fn segment(
    net: &Net,
    sched: Schedule,
    rpc: Option<&mut Delta>,
) -> Result<Segment, Box<dyn std::error::Error>> {
    let (ctrl, session) = open()?;
    let before = rpc.is_some().then(|| stats_rpc(&session)).transpose()?;
    let (submits, withdraws, _) = Schedule::counts(&sched.events);
    let (start, sent, drained) = phase(&session, &sched.events, submits, withdraws);
    let t_probe = Instant::now();
    let probe_sent = if drained {
        session.steps(&sched.probe, submits, withdraws, DRAIN)
    } else {
        vec![None; sched.probe.len()]
    };
    let probe_s = t_probe.elapsed().as_secs_f64();
    // A controller that stopped answering gets no further requests, so a
    // wedged run still ends within one drain deadline.
    let responsive = drained
        && probe_sent.iter().all(Option::is_some)
        && session.sync_broker(u64::MAX - 1, DRAIN);
    if let (Some(rpc), Some(before), true) = (rpc, before, responsive) {
        rpc.add(&before, &stats_rpc(&session)?);
    }
    let failures = check::run(&ctrl, &session, &net.ctx(), &sched, responsive);
    let seen = session.close();
    if responsive {
        drop(ctrl);
    } else {
        // Its event loop is stuck inside a call and cannot be joined; the
        // thread ends with the process.
        std::mem::forget(ctrl);
    }
    Ok(Segment {
        sched,
        start,
        sent,
        probe_sent,
        probe_s,
        seen,
        failures,
        responsive,
    })
}

/// What a segment's client and broker saw, over the submits and link
/// reports due in its measured window (on `flap`; elsewhere link reports
/// come from the failover probe).
#[derive(Default)]
struct Figures {
    verdict: Vec<f64>,
    install: Vec<f64>,
    down: Vec<f64>,
    up: Vec<f64>,
    /// Generator lateness over every load event written.
    late: Vec<f64>,
    admitted: usize,
    /// Submits due in the window.
    measured: usize,
    /// From the window's start to its last verdict.
    window_s: f64,
}

fn figures(seg: &Segment) -> Figures {
    let (sched, start, seen) = (&seg.sched, seg.start, &seg.seen);
    let due: HashMap<u64, f64> = sched
        .submits()
        .filter(|&(d, _)| sched.in_window(d))
        .map(|(d, r)| (r.id, d))
        .collect();
    let mut f = Figures {
        measured: due.len(),
        ..Figures::default()
    };
    let mut last_verdict = start + Duration::from_secs_f64(sched.window.0);
    for &(id, ok, at) in &seen.verdicts {
        let Some(&d) = due.get(&id) else {
            continue;
        };
        f.verdict.push(since_due(at, start, d));
        last_verdict = last_verdict.max(at);
        if ok {
            f.admitted += 1;
            if let Some(&inst) = seen.first_install.get(&id) {
                f.install.push(since_due(inst, start, d));
            }
        }
    }
    (f.down, f.up) = if sched.probe.is_empty() {
        let due = |e: &Event| start + Duration::from_secs_f64(e.due);
        link_latency(
            sched
                .events
                .iter()
                .filter(|e| sched.in_window(e.due))
                .map(|e| (e, due(e))),
            seen,
        )
    } else {
        link_latency(
            sched
                .probe
                .iter()
                .zip(&seg.probe_sent)
                .filter_map(|(e, s)| Some((e, (*s)?))),
            seen,
        )
    };
    f.late = lateness(&sched.events, start, &seg.sent);
    f.window_s = (last_verdict - start).as_secs_f64() - sched.window.0;
    f
}

/// Every segment's samples of one kind, pooled.
fn pooled<'a>(figs: &'a [Figures], get: impl Fn(&'a Figures) -> &'a Vec<f64>) -> Vec<f64> {
    figs.iter().flat_map(|f| get(f).iter().copied()).collect()
}

/// The median over segments of each segment's median: a segment caught
/// by a controller stall cannot move it.
fn median_of_medians<'a>(figs: &'a [Figures], get: impl Fn(&'a Figures) -> &'a Vec<f64>) -> f64 {
    let mut medians: Vec<f64> = figs
        .iter()
        .map(get)
        .filter(|v| !v.is_empty())
        .map(|v| median(&mut v.clone()))
        .collect();
    median(&mut medians)
}

fn run(args: &Args) -> Result<ExitCode, Box<dyn std::error::Error>> {
    let net = Net::new();
    let mut setup = Vec::new();
    let mut rpc = args.trace.then(Delta::default);
    let mut segs = Vec::new();
    println!(
        "ctlbench workload={} seed={} seconds={} trace={} segments={SEGMENTS}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for k in 0..SEGMENTS {
        let seed = args.seed.wrapping_mul(SEGMENTS).wrapping_add(k);
        let sched = workload::build(
            &args.workload,
            &net.topo,
            seed,
            args.seconds / SEGMENTS as f64,
            args.trace,
            PROBE_CYCLES,
            k * SEGMENT_IDS + 1,
        )
        .expect("workload name checked by parse_args");
        let (s, w, l) = Schedule::counts(&sched.events);
        let (ps, pw, pl) = Schedule::counts(&sched.probe);
        println!(
            "segment {k} seed={seed} window={:?} load: {s} submits, {w} withdrawals, {l} link reports; failover probe: {ps} submits, {pw} withdrawals, {pl} link reports",
            sched.window
        );
        setup_times(&mut setup)?;
        let seg = segment(&net, sched, rpc.as_mut())?;
        let responsive = seg.responsive;
        segs.push(seg);
        if !responsive {
            // Its event loop still spins on a CPU: later segments would
            // measure it, not their own controller.
            println!("segment {k}: the controller stopped answering; run ended");
            break;
        }
    }
    let responsive = segs.iter().all(|s| s.responsive);
    let figs: Vec<Figures> = segs.iter().map(figures).collect();
    for (k, (seg, f)) in segs.iter().zip(&figs).enumerate() {
        println!(
            "segment {k}: verdict p50 {:.3} ms p99 {:.3} ms (n={}), failover probe {:.2} s",
            quantile(&mut f.verdict.clone(), 0.5),
            quantile(&mut f.verdict.clone(), 0.99),
            f.verdict.len(),
            seg.probe_s
        );
    }

    let verdict = pooled(&figs, |f| &f.verdict);
    let install = pooled(&figs, |f| &f.install);
    let late = pooled(&figs, |f| &f.late);
    let admitted: usize = figs.iter().map(|f| f.admitted).sum();
    let measured: usize = figs.iter().map(|f| f.measured).sum();
    let attempted: u64 = segs
        .iter()
        .map(|seg| {
            let (s, w, l) = Schedule::counts(&seg.sched.events);
            let (ps, pw, pl) = Schedule::counts(&seg.sched.probe);
            (s + w + l + ps + pw + pl) as u64
        })
        .sum();
    let failed: u64 = segs
        .iter()
        .flat_map(|s| &s.failures)
        .map(|f| f.ops)
        .sum::<u64>()
        .min(attempted);

    let mut e2e = Report::default();
    e2e.put_n("setup_s", "s", median(&mut setup.clone()), setup.len());
    e2e.put_n(
        "verdict_p50_ms",
        "ms",
        median_of_medians(&figs, |f| &f.verdict),
        verdict.len(),
    );
    e2e.q("verdict_p99_ms", "ms", &verdict, 0.99);
    e2e.put_n(
        "install_p50_ms",
        "ms",
        median_of_medians(&figs, |f| &f.install),
        install.len(),
    );
    e2e.q("install_p99_ms", "ms", &install, 0.99);
    let (down, up) = (pooled(&figs, |f| &f.down), pooled(&figs, |f| &f.up));
    e2e.q("recovery_p50_ms", "ms", &down, 0.5);
    e2e.q("recovery_p90_ms", "ms", &down, 0.9);
    e2e.q("repair_p50_ms", "ms", &up, 0.5);
    e2e.q("repair_p90_ms", "ms", &up, 0.9);
    let mut rates: Vec<f64> = figs
        .iter()
        .map(|f| ratio(f.verdict.len() as f64, f.window_s))
        .collect();
    e2e.put_n("achieved_per_s", "1/s", median(&mut rates), verdict.len());
    e2e.put(
        "admitted_frac",
        "ratio",
        ratio(admitted as f64, measured as f64),
    );
    e2e.put("peak_rss_mb", "MB", record::peak_rss_mb());
    e2e.put(
        "failed_frac",
        "ratio",
        ratio(failed as f64, attempted as f64),
    );

    let (late_p50, late_p99) = (
        quantile(&mut late.clone(), 0.5),
        quantile(&mut late.clone(), 0.99),
    );
    let valid = late_p99 <= LATE_P99_LIMIT_MS;
    println!(
        "record {{\"seed\": {}, \"rev\": {}, \"nproc\": {}, \"cpu\": {}, \"rustc\": {}, \"late_p50_ms\": {}, \"late_p99_ms\": {}, \"late_limit_ms\": {}, \"valid\": {}}}",
        args.seed,
        record::json_str(&record::source_rev()),
        record::nproc(),
        record::json_str(&record::cpu_model()),
        record::json_str(&record::rustc_version()),
        num(late_p50),
        num(late_p99),
        num(LATE_P99_LIMIT_MS),
        valid
    );
    for (k, seg) in segs.iter().enumerate() {
        for f in &seg.failures {
            println!("check FAILED (segment {k}, {} ops): {}", f.ops, f.what);
        }
    }
    let correct = failed == 0;
    println!(
        "check {}: attempted {attempted}, failed {failed}",
        if correct { "ok" } else { "FAILED" }
    );

    let gated = |name: &str| GATED.contains(&name);
    let note = |name: &str| if gated(name) { "" } else { "(not gated)" };
    let metrics = if args.trace && !responsive {
        // The replay would stall in the same call the controller did.
        println!("replay skipped: the controller stopped answering");
        e2e.print(note);
        Report::default().json(|_| true)
    } else if args.trace {
        let layers = traced_report(
            &net,
            &segs,
            &late,
            &rpc.unwrap_or_default(),
            e2e.get("verdict_p50_ms"),
        );
        e2e.print(note);
        layers.print(|_| "");
        layers.json(|_| true)
    } else {
        e2e.print(note);
        e2e.json(gated)
    };
    if !valid {
        println!("invalid run: generator lateness p99 {late_p99:.3} ms exceeds {LATE_P99_LIMIT_MS} ms; not scored");
        return Ok(ExitCode::from(3));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics}}}"
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// Per-layer figures: the controller's counters over its stats RPC, the
/// event-loop probes, and the in-process replay of the run's inputs.
fn traced_report(
    net: &Net,
    segs: &[Segment],
    late: &[f64],
    rpc: &Delta,
    verdict_p50_ms: f64,
) -> Report {
    let ctx = net.ctx();
    let mut probe_wait = Vec::new();
    let mut socket: HashMap<u64, bool> = HashMap::new();
    let mut installs = 0;
    for seg in segs {
        for e in seg
            .sched
            .events
            .iter()
            .filter(|e| seg.sched.in_window(e.due))
        {
            if let Op::Probe { token } = e.op {
                if let Some(&at) = seg.seen.pongs.get(&token) {
                    probe_wait.push(since_due(at, seg.start, e.due));
                }
            }
        }
        socket.extend(seg.seen.verdicts.iter().map(|&(id, ok, _)| (id, ok)));
        installs += seg.seen.installs;
    }
    let admitted = socket.values().filter(|&&ok| ok).count();

    // Set-up layers, timed on their own.
    let (mut tunnels_ms, mut scenarios_ms) = (Vec::new(), Vec::new());
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        std::hint::black_box(TunnelSet::compute(&net.topo, RoutingScheme::default_ksp4()));
        tunnels_ms.push(ms(t0.elapsed()));
        let t0 = Instant::now();
        std::hint::black_box(ScenarioSet::enumerate(&net.topo, MAX_FAILURES));
        scenarios_ms.push(ms(t0.elapsed()));
    }

    let scheds: Vec<&Schedule> = segs.iter().map(|s| &s.sched).collect();
    let layers = replay::run(&ctx, &scheds);
    let mismatch = layers
        .verdicts
        .iter()
        .filter(|(id, ok)| socket.get(id).is_some_and(|s| s != *ok))
        .count();
    let batches = rpc.get("bate_ctrl_batches_total");
    let inc = &layers.apply_stats;
    let rounds = (inc.warm_rounds + inc.cold_rounds) as f64;

    let mut r = Report::default();
    r.put("wire.encode_us", "us", layers.encode_us);
    r.put("wire.decode_us", "us", layers.decode_us);
    r.put("wire.bytes_per_submit", "bytes", layers.bytes_per_submit);
    r.q("controller.probe_wait_p50_ms", "ms", &probe_wait, 0.5);
    r.q("controller.probe_wait_p99_ms", "ms", &probe_wait, 0.99);
    r.put(
        "controller.installs_per_admit",
        "ratio",
        ratio(installs as f64, admitted as f64),
    );
    r.put("controller.batches", "count", batches);
    r.put(
        "controller.batch_mean",
        "count",
        ratio(rpc.get("bate_ctrl_submits_total"), batches),
    );
    r.put(
        "controller.warm_solves",
        "count",
        rpc.get("bate_ctrl_batch_warm_solves_total"),
    );
    r.q("admission.fold_us_p50", "us", &layers.fold_us, 0.5);
    r.q("admission.fold_us_p99", "us", &layers.fold_us, 0.99);
    r.q(
        "admission.reject_fold_us_p50",
        "us",
        &layers.reject_fold_us,
        0.5,
    );
    r.put(
        "admission.via_fixed",
        "count",
        rpc.get("bate_admission_via_fixed_total"),
    );
    r.put(
        "admission.via_conjecture",
        "count",
        rpc.get("bate_admission_via_conjecture_total"),
    );
    r.put(
        "admission.rejected",
        "count",
        rpc.get("bate_admission_rejected_total"),
    );
    r.q("incremental.apply_ms_p50", "ms", &layers.apply_ms, 0.5);
    r.q("incremental.apply_ms_p99", "ms", &layers.apply_ms, 0.99);
    r.put(
        "incremental.cold_share",
        "ratio",
        ratio(inc.cold_rounds as f64, rounds),
    );
    r.put(
        "incremental.deltas_per_apply",
        "count",
        ratio(inc.deltas as f64, layers.apply_ms.len() as f64),
    );
    r.put(
        "incremental.cert_fallbacks",
        "count",
        inc.cert_fallbacks as f64,
    );
    r.q("scheduling.hardened_ms_p50", "ms", &layers.hardened_ms, 0.5);
    r.q("scheduling.hardened_ms_p90", "ms", &layers.hardened_ms, 0.9);
    r.put(
        "scheduling.hard_violations",
        "count",
        rpc.get("bate_sched_hard_violations_total"),
    );
    r.put(
        "rowgen.rounds",
        "count",
        rpc.get("bate_rowgen_rounds_total"),
    );
    r.put(
        "rowgen.rows_added",
        "count",
        rpc.get("bate_rowgen_rows_added_total"),
    );
    r.q("recovery.greedy_ms_p50", "ms", &layers.greedy_ms, 0.5);
    r.q("recovery.greedy_ms_p90", "ms", &layers.greedy_ms, 0.9);
    r.put(
        "recovery.forfeited",
        "count",
        rpc.get("bate_recovery_forfeited_total"),
    );
    r.put(
        "lp.solves",
        "count",
        rpc.get("bate_solver_solves_total") + rpc.get("bate_warm_rounds_total"),
    );
    let solves = layers.installed_solves as f64;
    r.put(
        "lp.pivots_per_solve",
        "count",
        ratio(layers.final_pivots as f64, solves),
    );
    r.put(
        "lp.iterations_per_solve",
        "count",
        ratio(layers.final_iterations as f64, solves),
    );
    r.q("setup.tunnels_ms", "ms", &tunnels_ms, 0.5);
    r.q("setup.scenarios_ms", "ms", &scenarios_ms, 0.5);
    r.q("loadgen.late_p50_ms", "ms", late, 0.5);
    r.q("loadgen.late_p99_ms", "ms", late, 0.99);
    r.put("replay.verdict_mismatch", "count", mismatch as f64);
    // Matched to `verdict_p50_ms`: the median over segments of the
    // replayed path's median over the submits in each segment's window.
    let path: HashMap<u64, f64> = layers.verdict_path_ms.iter().copied().collect();
    let mut medians: Vec<f64> = segs
        .iter()
        .map(|seg| {
            seg.sched
                .submits()
                .filter(|&(due, _)| seg.sched.in_window(due))
                .filter_map(|(_, r)| path.get(&r.id).copied())
                .collect::<Vec<f64>>()
        })
        .filter(|v| !v.is_empty())
        .map(|mut v| median(&mut v))
        .collect();
    let replayed = median(&mut medians);
    r.put("budget.verdict_p50_ms", "ms", verdict_p50_ms);
    r.put("budget.replayed_p50_ms", "ms", replayed);
    r.put("budget.unexplained_p50_ms", "ms", verdict_p50_ms - replayed);
    if !layers.probed.is_empty() {
        println!(
            "replay: no run input reached {:?}; timed once on the pool the last segment left",
            layers.probed
        );
    }
    println!(
        "budget: verdict p50 {verdict_p50_ms:.3} ms = replayed layers {replayed:.3} ms (wire codec, fold, solve, push) + unexplained {:.3} ms (socket, queue wait, scheduling)",
        verdict_p50_ms - replayed
    );
    r
}

/// Informational capacity sweep: `steady`'s shape (10–50 Mbps demands)
/// at geometrically rising offered rates, one fresh controller per step.
/// Prints offered vs achieved rate and verdict latency per step and names
/// the knee: the highest offered rate achieved within 2% with verdict p99
/// inside `SWEEP_SLO_P99_MS`. Not gated: near the knee the in-loop solve
/// makes the controller metastable.
fn sweep(args: &Args) -> Result<ExitCode, Box<dyn std::error::Error>> {
    let topo = topologies::testbed6();
    println!(
        "sweep seed={} seconds_per_step={} slo_p99_ms={SWEEP_SLO_P99_MS}",
        args.seed, args.seconds
    );
    println!(
        "{:>10} {:>12} {:>12} {:>12} {:>12}",
        "offered/s", "achieved/s", "p50_ms", "p99_ms", "warm_solves"
    );
    let mut knee = None;
    for step in 0..8 {
        let offered = 100.0 * 2f64.powf(step as f64 / 2.0);
        let events = workload::steady(
            &topo,
            args.seed,
            args.seconds,
            offered,
            (10.0, 50.0),
            0.5,
            1,
        );
        let due: HashMap<u64, f64> = events
            .iter()
            .filter_map(|e| match &e.op {
                Op::Submit(r) => Some((r[0].id, e.due)),
                _ => None,
            })
            .collect();
        let withdraws = events
            .iter()
            .filter(|e| matches!(e.op, Op::Withdraw(_)))
            .count();
        let (ctrl, session) = open()?;
        let before = stats_rpc(&session)?;
        let (start, _, drained) = phase(&session, &events, due.len(), withdraws);
        let after = if drained {
            stats_rpc(&session)?
        } else {
            before.clone()
        };
        let seen = session.close();
        if !drained {
            // Its event loop is stuck inside a call and cannot be joined.
            std::mem::forget(ctrl);
            println!(
                "{:>10.1} collapsed: {} of {} verdicts within {} s of the last submit",
                due.len() as f64 / args.seconds,
                seen.verdicts.len(),
                due.len(),
                DRAIN.as_secs()
            );
            break;
        }
        drop(ctrl);
        let mut lat: Vec<f64> = seen
            .verdicts
            .iter()
            .map(|&(id, _, at)| since_due(at, start, due[&id]))
            .collect();
        let last = seen.verdicts.iter().map(|v| v.2).max().unwrap_or(start);
        let achieved = seen.verdicts.len() as f64 / args.seconds.max((last - start).as_secs_f64());
        let offered_real = due.len() as f64 / args.seconds;
        let (p50, p99) = (quantile(&mut lat, 0.5), quantile(&mut lat, 0.99));
        let mut delta = Delta::default();
        delta.add(&before, &after);
        let solves = delta.get("bate_ctrl_batch_warm_solves_total");
        println!("{offered_real:>10.1} {achieved:>12.1} {p50:>12.3} {p99:>12.3} {solves:>12}");
        let holds = seen.verdicts.len() == due.len()
            && achieved >= 0.98 * offered_real
            && p99 <= SWEEP_SLO_P99_MS;
        if holds {
            knee = Some(offered_real);
        } else if p99 > 10.0 * SWEEP_SLO_P99_MS {
            break;
        }
    }
    match knee {
        Some(k) => println!("knee: {k:.1}/s offered"),
        None => println!("knee: below the first step"),
    }
    Ok(ExitCode::SUCCESS)
}
