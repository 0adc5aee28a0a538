//! Pipelined-admission equivalence: N submissions landed in one write
//! through the event-driven controller must get *exactly* the verdicts
//! the same demands get one round-trip at a time against a fresh
//! controller — each submit is decided in arrival order by the same FCFS
//! fold, however many share a poll wakeup.
//!
//! Allocations are checked where the brokers see them: before any
//! scheduling round, the fold's pushed allocation respects every link's
//! capacity; after one Online Scheduler round, both controllers reach the
//! certified exact-LP objective for the admitted set, and every admitted
//! demand meets its availability target.

use bate_core::scheduling::schedule;
use bate_core::{Allocation, BaDemand, DemandId, TeContext};
use bate_net::{topologies, ScenarioSet};
use bate_routing::{RoutingScheme, TunnelId, TunnelSet};
use bate_system::client::DemandRequest;
use bate_system::{Broker, Client, Controller, ControllerConfig, PipelinedClient};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

fn start_controller() -> Controller {
    Controller::start(ControllerConfig::manual(
        topologies::testbed6(),
        RoutingScheme::default_ksp4(),
        2,
    ))
    .expect("controller start")
}

/// A seeded workload over testbed6: mixed pairs, sizes, and targets,
/// with a few oversized entries that must reject, so the verdict vector
/// is non-trivial in both directions.
fn seeded_demands(seed: u64, n: usize, id_base: u64) -> Vec<DemandRequest> {
    let mut rng = StdRng::seed_from_u64(seed);
    let dcs = ["DC1", "DC2", "DC3", "DC4", "DC5", "DC6"];
    (0..n)
        .map(|i| {
            let src = dcs[rng.gen_range(0..dcs.len())];
            let mut dst = dcs[rng.gen_range(0..dcs.len())];
            while dst == src {
                dst = dcs[rng.gen_range(0..dcs.len())];
            }
            // Every 5th demand is far beyond any cut capacity: a
            // guaranteed reject mixed into the batch.
            let bandwidth = if i % 5 == 4 {
                20_000.0
            } else {
                rng.gen_range(30.0..250.0)
            };
            let beta = [0.9, 0.95, 0.99][rng.gen_range(0..3usize)];
            DemandRequest::new(id_base + i as u64, src, dst, bandwidth, beta)
        })
        .collect()
}

/// The allocation `broker` holds for `ids`, rebuilt from its installed
/// flow entries once each demand's install has landed.
fn installed(broker: &Broker, ids: &[u64]) -> Allocation {
    let mut alloc = Allocation::new();
    for &id in ids {
        assert!(
            broker.wait_for_demand(id, Duration::from_secs(5)),
            "demand {id} was never installed"
        );
        for e in broker.entries(id) {
            let t = TunnelId {
                pair: e.pair as usize,
                tunnel: e.tunnel as usize,
            };
            alloc.set(DemandId(id), t, e.rate);
        }
    }
    alloc
}

#[test]
fn batched_equals_sequential_with_certified_objective() {
    let n = 12;
    // Distinct id ranges so the two controllers' trace roots (derived
    // from demand ids) never collide in the shared flight ring.
    let batch_reqs = seeded_demands(0xBA7E, n, 1000);
    let seq_reqs: Vec<DemandRequest> = batch_reqs
        .iter()
        .map(|r| DemandRequest {
            id: r.id + 1000,
            ..r.clone()
        })
        .collect();

    // Pipelined path: all N frames queued locally and flushed in one
    // write, so they land in one controller wakeup.
    let ctrl_batch = start_controller();
    let broker = Broker::connect(ctrl_batch.addr(), "DC1").unwrap();
    assert!(ctrl_batch.wait_for_brokers(1, Duration::from_secs(2)));
    let mut pipelined = PipelinedClient::connect(ctrl_batch.addr()).unwrap();
    for req in &batch_reqs {
        pipelined.queue_submit(req).unwrap();
    }
    pipelined.flush().unwrap();
    let mut batch_verdicts = Vec::with_capacity(n);
    for req in &batch_reqs {
        let (id, admitted) = pipelined.recv_verdict().unwrap();
        assert_eq!(id, req.id, "replies must arrive in submission order");
        batch_verdicts.push(admitted);
    }

    // Sequential path: a fresh controller, one round-trip per demand.
    let ctrl_seq = start_controller();
    let mut client = Client::connect(ctrl_seq.addr()).unwrap();
    let seq_verdicts: Vec<bool> = seq_reqs
        .iter()
        .map(|req| client.submit(req).unwrap())
        .collect();

    assert_eq!(
        batch_verdicts, seq_verdicts,
        "pipelined admission diverged from the sequential pipeline"
    );
    let admitted: Vec<&DemandRequest> = batch_reqs
        .iter()
        .zip(&batch_verdicts)
        .filter(|(_, &a)| a)
        .map(|(r, _)| r)
        .collect();
    assert!(
        admitted.len() > 1 && admitted.len() < n,
        "seeded workload must mix admits and rejects (got {}/{n})",
        admitted.len()
    );
    assert_eq!(ctrl_batch.admitted_count(), admitted.len());
    assert_eq!(ctrl_seq.admitted_count(), admitted.len());

    let topo = topologies::testbed6();
    let tunnels = TunnelSet::compute(&topo, RoutingScheme::default_ksp4());
    let scenarios = ScenarioSet::enumerate(&topo, 2);
    let ctx = TeContext::new(&topo, &tunnels, &scenarios);
    let pool = |id_offset: u64| -> Vec<BaDemand> {
        admitted
            .iter()
            .map(|r| {
                let s = topo.find_node(&r.src).unwrap();
                let d = topo.find_node(&r.dst).unwrap();
                let pair = tunnels.pair_index(s, d).unwrap();
                BaDemand::single(r.id + id_offset, pair, r.bandwidth, r.beta)
            })
            .collect()
    };
    let ids = |id_offset: u64| -> Vec<u64> { admitted.iter().map(|r| r.id + id_offset).collect() };

    // Before any round, the brokers hold the fold's allocations, and
    // those must already fit the links.
    let fold = installed(&broker, &ids(0));
    assert!(
        fold.respects_capacity(&ctx, 1e-6),
        "the fold's pushed allocation exceeds link capacity"
    );

    // Exact oracle: the certified LP objective over the admitted set.
    let oracle = schedule(&ctx, &pool(0)).expect("oracle solve");

    // One Online Scheduler round on each controller: both reach the
    // certified objective, and a broker registering afterwards is synced
    // with an allocation that meets every admitted demand's target.
    for (ctrl, id_offset) in [(&ctrl_batch, 0), (&ctrl_seq, 1000)] {
        ctrl.run_schedule_round();
        let total: f64 = ids(id_offset)
            .iter()
            .map(|&id| ctrl.allocated_rate(id))
            .sum();
        assert!(
            (total - oracle.total_bandwidth).abs() < 1e-6 * oracle.total_bandwidth.max(1.0),
            "round total {total} != certified oracle objective {}",
            oracle.total_bandwidth
        );
        let late = Broker::connect(ctrl.addr(), "DC2").unwrap();
        let scheduled = installed(&late, &ids(id_offset));
        for d in pool(id_offset) {
            assert!(
                scheduled.meets_target(&ctx, &d),
                "demand {:?} misses its target after the round",
                d.id
            );
        }
    }
}

/// Duplicated frames *inside* one write replay the verdict their sibling
/// earned moments earlier — idempotency holds within a wakeup, not just
/// across round-trips.
#[test]
fn duplicate_submit_within_a_batch_replays_the_verdict() {
    let ctrl = start_controller();
    let mut pipelined = PipelinedClient::connect(ctrl.addr()).unwrap();
    let req = DemandRequest::new(7, "DC1", "DC3", 150.0, 0.95);
    pipelined.queue_submit(&req).unwrap();
    pipelined.queue_submit(&req).unwrap(); // the duplicate
    pipelined.queue_submit(&DemandRequest::new(8, "DC2", "DC6", 80.0, 0.9)).unwrap();
    pipelined.flush().unwrap();

    let verdicts: Vec<(u64, bool)> = (0..3).map(|_| pipelined.recv_verdict().unwrap()).collect();
    assert_eq!(verdicts, vec![(7, true), (7, true), (8, true)]);
    assert_eq!(ctrl.admitted_count(), 2, "the duplicate is not double-counted");
}
