//! Property tests for the fleet engine's determinism contract (DESIGN.md
//! §2.10): for any scenario, the merged [`FleetSummary`] is bit-for-bit
//! identical whether the users run on 1, 2, 4 or 8 worker threads, in
//! private worlds or on shared islands.
//!
//! This is the load-bearing invariant behind running experiments in
//! parallel at all — if it held only for hand-picked configurations, no
//! published number could be trusted across machines.

use proptest::prelude::*;

use mcommerce::core::{
    Category, FleetReport, FleetRunner, FleetSummary, MiddlewareKind, Scenario, Topology,
};

// The property bodies predate the FleetRunner API; this shim keeps them
// readable while exercising the replacement entry point.
fn run_on(scenario: &Scenario, threads: usize) -> FleetReport {
    FleetRunner::new(scenario.clone()).threads(threads).run().report
}

/// Runs `scenario` at 1, 2, 4 and 8 threads on private worlds and on
/// four shared islands, asserts each topology's summary is the same at
/// every thread count, and returns the one-thread isolated summary.
fn assert_thread_identical(scenario: &Scenario) -> FleetSummary {
    let islands = Topology::shared().cells(8).gateways(4).hosts(4);
    let mut isolated = None;
    for topology in [Topology::isolated(), islands] {
        let runner = FleetRunner::new(scenario.clone()).topology(topology);
        let one = runner.clone().threads(1).run().report.summary;
        for threads in [2, 4, 8] {
            let many = runner.clone().threads(threads).run().report.summary;
            assert_eq!(one, many, "{} users at {threads} threads", scenario.users);
        }
        isolated.get_or_insert(one);
    }
    isolated.expect("the isolated topology ran")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn fleet_summary_is_shard_count_invariant(
        users in 1..10u64,
        sessions in 1..3u64,
        category in (0..8usize).prop_map(|i| Category::ALL[i]),
        middleware in (0..3usize).prop_map(|i| MiddlewareKind::ALL[i]),
        secure in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let scenario = Scenario::new("prop")
            .app(category)
            .middleware(middleware)
            .users(users)
            .sessions_per_user(sessions)
            .secure(secure)
            .seed(seed);
        let one = assert_thread_identical(&scenario);
        // Sanity: the fleet actually did work.
        prop_assert!(one.transactions() >= users);
    }

    #[test]
    fn single_user_fleet_matches_a_hand_built_system(
        seed in any::<u64>(),
        secure in any::<bool>(),
    ) {
        // The Scenario's one-user convenience `system()` and the fleet
        // path must describe the same world: running user 0 by hand
        // produces exactly the counters the 1-user fleet reports.
        use mcommerce::core::WorkloadCounters;
        let scenario = Scenario::new("solo").secure(secure).seed(seed);
        let fleet_counters = run_on(&scenario, 1)
            .summary
            .workload
            .counters;
        let mut by_hand = WorkloadCounters::default();
        scenario.run_user(0, &mut by_hand);
        prop_assert_eq!(fleet_counters, by_hand);
    }
}

/// The same identity at the edges of the isolated engine's 1024-user
/// blocks: one block plus one user, and an empty fleet. Fixed inputs,
/// because the property above draws its populations at random.
#[test]
fn fleet_summary_is_shard_count_invariant_at_block_edges() {
    for users in [1025, 0] {
        let scenario = Scenario::new("edges").users(users).seed(41);
        let one = assert_thread_identical(&scenario);
        // Commerce sessions are two steps each.
        assert_eq!(one.transactions(), 2 * users);
    }
}
