//! The observability determinism contract, end to end:
//!
//! 1. A fixed-seed traced fleet produces **byte-identical** JSONL and
//!    Chrome-trace exports at any thread count — the recorder inherits
//!    the fleet engine's canonical user-order merge.
//! 2. Tracing only observes: the workload summary matches the untraced
//!    run exactly.
//! 3. Every failed transaction leaves a flight-recorder dump naming the
//!    layer that failed it.

use mcommerce_core::{Category, FleetReport, FleetRunner, FleetTrace, Scenario, Topology};
use wireless::WlanStandard;

// These shims keep the assertions readable while exercising the
// FleetRunner entry point that replaced fleet::run_traced_on.
fn run_on(scenario: &Scenario, threads: usize) -> FleetReport {
    FleetRunner::new(scenario.clone()).threads(threads).run().report
}

fn run_traced_on(scenario: &Scenario, threads: usize) -> (FleetReport, FleetTrace) {
    let run = FleetRunner::new(scenario.clone())
        .threads(threads)
        .traced(true)
        .run();
    (run.report, run.trace.expect("traced run carries a trace"))
}

fn scenario() -> Scenario {
    Scenario::new("trace-props")
        .app(Category::Commerce)
        .users(12)
        .sessions_per_user(2)
        .seed(2003)
}

/// Byte-identity at 1, 2, 4 and 8 threads, on private worlds and on four
/// shared islands, for the fixed scenario and at the edges of the
/// isolated engine's 1024-user blocks (one block plus one user, and an
/// empty fleet).
#[test]
fn fleet_trace_is_byte_identical_across_thread_counts() {
    let islands = Topology::shared().cells(8).gateways(4).hosts(4);
    for users in [12, 1025, 0] {
        let scenario = scenario().users(users);
        for topology in [Topology::isolated(), islands] {
            let traced_on = |threads| {
                let run = FleetRunner::new(scenario.clone())
                    .topology(topology)
                    .threads(threads)
                    .traced(true)
                    .run();
                run.trace.expect("traced run carries a trace")
            };
            let t1 = traced_on(1);
            assert_eq!(
                t1.events.is_empty(),
                users == 0,
                "traced fleet must produce events"
            );
            let (jsonl, chrome) = (t1.to_jsonl(), t1.to_chrome_json());
            for threads in [2, 4, 8] {
                let t = traced_on(threads);
                let at = format!("{users} users on {topology:?} at {threads} threads");
                assert_eq!(
                    jsonl,
                    t.to_jsonl(),
                    "JSONL must not depend on threads: {at}"
                );
                assert_eq!(chrome, t.to_chrome_json(), "{at}");
                // The merged metrics registry obeys the same contract.
                assert_eq!(t1.metrics.to_json(), t.metrics.to_json(), "{at}");
            }
        }
    }
}

#[test]
fn tracing_does_not_perturb_the_fleet() {
    let scenario = scenario();
    let untraced = run_on(&scenario, 4).summary;
    let (traced, trace) = run_traced_on(&scenario, 4);
    assert_eq!(traced.summary, untraced);
    assert_eq!(
        trace.metrics.counter("station.transactions"),
        untraced.transactions()
    );
}

#[test]
fn failed_transactions_dump_the_flight_recorder() {
    // Out of WLAN range: every transaction fails with "no coverage", and
    // each failure must leave a dump attributed to the wireless layer.
    let dead_zone = scenario().users(3).wireless(
        mcommerce_core::netpath::WirelessConfig::Wlan {
            standard: WlanStandard::Bluetooth,
            distance_m: 50.0,
        },
    );
    let (report, trace) = run_traced_on(&dead_zone, 2);
    let failed = report.summary.workload.attempted - report.summary.workload.succeeded;
    assert!(failed > 0, "dead zone must fail transactions");
    assert_eq!(
        trace.dumps.len(),
        failed,
        "one flight dump per failed transaction"
    );
    for dump in &trace.dumps {
        assert_eq!(dump.layer, obs::Layer::Wireless, "{}", dump.reason);
        assert!(dump.reason.contains("no coverage"), "{}", dump.reason);
    }
}
