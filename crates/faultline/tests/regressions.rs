//! Regression demonstrations of the pre-hardening bugs: each test pins a
//! failure mode that existed before the hardening pass (no retry policy,
//! no idempotent request ids, no CRC framing, no broker reconnect) and
//! shows the hardened path surviving it.

use bate_core::clock::SystemClock;
use bate_net::topologies;
use bate_routing::RoutingScheme;
use bate_system::client::DemandRequest;
use bate_system::wire::Transport;
use bate_system::{Broker, Client, Controller, ControllerConfig, RetryPolicy};
use faultline::harness::harness_policy;
use faultline::plan::Direction;
use faultline::{FaultPlan, FaultProxy};
use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn start_controller() -> Controller {
    Controller::start(ControllerConfig::manual(
        topologies::testbed6(),
        RoutingScheme::default_ksp4(),
        2,
    ))
    .unwrap()
}

fn proxied_client(proxy: &FaultProxy, policy: RetryPolicy) -> Client {
    let addr = proxy.addr();
    Client::connect_with(
        Box::new(move || {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            Ok(Box::new(stream) as Box<dyn Transport>)
        }),
        SystemClock::shared(),
        policy,
    )
    .unwrap()
}

/// THE retry bug: the first AdmissionReply is dropped on the wire. The
/// hardened client retries, the controller replays the verdict
/// idempotently, and the demand is counted exactly once.
#[test]
fn dropped_admission_reply_is_retried_not_double_counted() {
    let plan = FaultPlan::seeded(42).drop_first(Some(Direction::S2C), 1);
    let req = DemandRequest::new(1, "DC1", "DC4", 100.0, 0.9);

    let controller = start_controller();
    let proxy = FaultProxy::start(controller.addr(), plan.clone()).unwrap();
    let mut client = proxied_client(&proxy, harness_policy(&plan));
    assert!(client.submit(&req).unwrap());
    assert_eq!(controller.admitted_count(), 1, "never double-counted");
    // The trace shows the drop actually happened.
    assert!(
        proxy.trace_jsonl().contains("\"action\":\"drop\""),
        "trace: {}",
        proxy.trace_jsonl()
    );
}

/// Garbage and corrupt frames must not take the controller down (the
/// pre-hardening decode path `unwrap()`ed and panicked the connection
/// thread; worse, a truncated length header could hang the read loop).
#[test]
fn garbage_and_corrupt_frames_do_not_kill_the_controller() {
    let controller = start_controller();

    // Raw garbage: not even a valid header.
    let mut raw = TcpStream::connect(controller.addr()).unwrap();
    raw.write_all(&[0xFF; 64]).unwrap();
    raw.flush().unwrap();
    drop(raw);

    // A plausible header claiming a huge frame.
    let mut raw = TcpStream::connect(controller.addr()).unwrap();
    raw.write_all(&(u32::MAX).to_be_bytes()).unwrap();
    raw.write_all(&0u32.to_be_bytes()).unwrap();
    raw.flush().unwrap();
    drop(raw);

    // A frame severed mid-payload.
    let mut raw = TcpStream::connect(controller.addr()).unwrap();
    raw.write_all(&100u32.to_be_bytes()).unwrap();
    raw.write_all(&0u32.to_be_bytes()).unwrap();
    raw.write_all(&[1, 2, 3]).unwrap();
    raw.flush().unwrap();
    drop(raw);

    // Every c2s frame corrupted through a proxy.
    let proxy = FaultProxy::start(controller.addr(), FaultPlan::seeded(9).corrupt(1.0)).unwrap();
    let policy = RetryPolicy {
        max_attempts: 2,
        request_timeout: Duration::from_millis(100),
        ..Default::default()
    };
    let mut bad_client = proxied_client(&proxy, policy);
    let _ = bad_client.submit(&DemandRequest::new(50, "DC1", "DC3", 10.0, 0.5));

    // The controller is still alive and serving.
    let mut client = Client::connect(controller.addr()).unwrap();
    assert!(client
        .submit(&DemandRequest::new(1, "DC1", "DC3", 100.0, 0.9))
        .unwrap());
    assert_eq!(controller.admitted_count(), 1);
}

/// Truncation floods must fail fast with a typed error, not hang: the
/// pre-hardening read path blocked forever waiting for bytes that never
/// come.
#[test]
fn truncated_requests_fail_fast_not_hang() {
    let controller = start_controller();
    let proxy = FaultProxy::start(controller.addr(), FaultPlan::seeded(5).truncate(1.0)).unwrap();
    let plan = proxy.plan().clone();
    let mut client = proxied_client(&proxy, harness_policy(&plan));

    let start = Instant::now();
    let result = client.submit(&DemandRequest::new(1, "DC1", "DC3", 100.0, 0.9));
    assert!(result.is_err(), "every request truncated ⇒ must error");
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "bounded retries must fail fast, took {:?}",
        start.elapsed()
    );
    // Controller unharmed.
    let mut direct = Client::connect(controller.addr()).unwrap();
    assert!(direct
        .submit(&DemandRequest::new(2, "DC1", "DC3", 100.0, 0.9))
        .unwrap());
}

/// A severed broker connection self-heals: the broker redials through its
/// dialer, re-registers, and the controller re-syncs every live
/// allocation — including ones from before the cut.
#[test]
fn broker_reconnects_and_reconverges_after_sever() {
    let controller = start_controller();
    let proxy = FaultProxy::start(controller.addr(), FaultPlan::seeded(77)).unwrap();

    let proxy_addr = proxy.addr();
    let broker = Broker::connect_via(
        Box::new(move || {
            let stream = TcpStream::connect(proxy_addr)?;
            stream.set_nodelay(true)?;
            Ok(Box::new(stream) as Box<dyn Transport>)
        }),
        "DC1",
        SystemClock::shared(),
    )
    .unwrap();
    assert!(controller.wait_for_brokers(1, Duration::from_secs(2)));

    let mut client = Client::connect(controller.addr()).unwrap();
    assert!(client
        .submit(&DemandRequest::new(1, "DC1", "DC3", 200.0, 0.9))
        .unwrap());
    assert!(broker.wait_for_demand(1, Duration::from_secs(2)));

    // Cut every proxied connection: the broker's controller link dies.
    proxy.sever_all();

    // The broker must reconnect (through the same dialer) by itself.
    let deadline = Instant::now() + Duration::from_secs(3);
    while broker.reconnect_count() == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(broker.reconnect_count() >= 1, "broker never reconnected");

    // New installs flow again over the re-established link.
    assert!(client
        .submit(&DemandRequest::new(2, "DC1", "DC4", 100.0, 0.9))
        .unwrap());
    assert!(
        broker.wait_for_demand(2, Duration::from_secs(3)),
        "install after reconnect never arrived"
    );

    // Register-time re-sync: a broker joining late receives allocations
    // that predate it, with no new submit needed.
    let late = Broker::connect(controller.addr(), "DC2").unwrap();
    assert!(
        late.wait_for_demand(1, Duration::from_secs(2)),
        "late broker was not re-synced with pre-existing allocations"
    );
    assert!(late.wait_for_demand(2, Duration::from_secs(2)));
}
