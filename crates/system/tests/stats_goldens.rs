//! Snapshot-golden checks for metric families a fresh controller must
//! pre-register and render at *exactly zero*.
//!
//! These live in their own test binary on purpose: the assertions are
//! exact-string matches against the process-global registry, so any
//! sibling test that triggers a warm solve or a storm would perturb the
//! counters. Process isolation keeps the goldens exact without weakening
//! them.

use bate_net::topologies;
use bate_routing::RoutingScheme;
use bate_system::{Client, Controller, ControllerConfig};

fn start_controller() -> Controller {
    Controller::start(ControllerConfig::manual(
        topologies::testbed6(),
        RoutingScheme::default_ksp4(),
        2,
    ))
    .expect("controller start")
}

/// Snapshot-golden check for the incremental warm-start family
/// (DESIGN.md §5e): a freshly started controller pre-registers every
/// `bate_warm_*` metric, so `batectl stats` — and the obscheck harness
/// downstream of the same registry — always render the full family at
/// zero, exactly these lines, even before any demand churn occurs.
#[test]
fn warm_start_families_render_at_zero() {
    let controller = start_controller();
    let mut client = Client::connect(controller.addr()).unwrap();
    let text = client.stats().unwrap();
    let golden = [
        "# TYPE bate_warm_cert_fallbacks_total counter\nbate_warm_cert_fallbacks_total 0\n",
        "# TYPE bate_warm_cold_rounds_total counter\nbate_warm_cold_rounds_total 0\n",
        "# TYPE bate_warm_compactions_total counter\nbate_warm_compactions_total 0\n",
        "# TYPE bate_warm_deltas_total counter\nbate_warm_deltas_total 0\n",
        "# TYPE bate_warm_dual_pivots_total counter\nbate_warm_dual_pivots_total 0\n",
        "# TYPE bate_warm_rounds_total counter\nbate_warm_rounds_total 0\n",
        "# TYPE bate_warm_resolve_ms histogram\n",
    ];
    for snippet in golden {
        assert!(
            text.contains(snippet),
            "stats exposition missing golden snippet {snippet:?} in:\n{text}"
        );
    }
    assert!(text.contains("bate_warm_resolve_ms_count 0\n"));
}

/// Same contract for the recovery-storm family (DESIGN.md §6x): the
/// `bate_storm_*` counters and the recovery-latency histogram render at
/// zero on a controller that has never seen a storm.
#[test]
fn storm_families_render_at_zero() {
    let controller = start_controller();
    let mut client = Client::connect(controller.addr()).unwrap();
    let text = client.stats().unwrap();
    let golden = [
        "# TYPE bate_storm_events_total counter\nbate_storm_events_total 0\n",
        "# TYPE bate_storm_recovery_runs_total counter\nbate_storm_recovery_runs_total 0\n",
        "# TYPE bate_storm_demands_recovered_total counter\nbate_storm_demands_recovered_total 0\n",
        "# TYPE bate_storm_demands_forfeited_total counter\nbate_storm_demands_forfeited_total 0\n",
        "# TYPE bate_storm_churn_deltas_total counter\nbate_storm_churn_deltas_total 0\n",
        "# TYPE bate_storm_recovery_ms histogram\n",
    ];
    for snippet in golden {
        assert!(
            text.contains(snippet),
            "stats exposition missing golden snippet {snippet:?} in:\n{text}"
        );
    }
    assert!(text.contains("bate_storm_recovery_ms_count 0\n"));
}
