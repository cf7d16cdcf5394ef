//! Deterministic work-count gate on user provisioning: a Commerce
//! user's system, built from a shard's scratch, may allocate at most
//! [`BUDGET`] times. Allocation counts are exact and repeatable for a
//! fixed build, so unlike wall time they can gate on a noisy machine.
//!
//! The file installs a counting global allocator and holds exactly one
//! test, so nothing else runs in this binary while it counts; the
//! counter is per thread besides.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mcommerce::core::{Category, Scenario, ShardScratch};

/// Allocations allowed per provisioned user, the shard template's
/// one-off seeding included.
const BUDGET: u64 = 50;
/// Users one scratch provisions: the island size of the benchmark's
/// `shared_cells` workload, the smallest population the one-off seeding
/// is spread over.
const USERS: u64 = 10;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with` fails only while the thread's locals are torn down.
    let _ = ALLOCS.try_with(|a| a.set(a.get() + 1));
}

/// The system allocator, counting every allocation on the calling
/// thread.
struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's own
// arguments; the only addition is bumping a const-initialised
// thread-local `Cell`, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

#[test]
fn commerce_provisioning_stays_within_its_allocation_budget() {
    let scenario = Scenario::new("provision-gate")
        .app(Category::Commerce)
        .users(USERS);
    let scratch = ShardScratch::new();
    let mut per_user = Vec::new();
    for user in 0..USERS {
        let before = allocs();
        let system = scenario.system_for_user_in(user, &scratch);
        per_user.push(allocs() - before);
        drop(system);
    }
    let total: u64 = per_user.iter().sum();
    assert!(
        total <= BUDGET * USERS,
        "provisioning {USERS} users took {total} allocations (budget {BUDGET}/user): {per_user:?}"
    );
    // Past the first user the template is built: each user costs one
    // clone and the wiring, never a re-seed.
    let steady = per_user[1..].iter().max().copied().unwrap_or(0);
    assert!(
        steady <= BUDGET,
        "a template-provisioned user took {steady} allocations (budget {BUDGET}): {per_user:?}"
    );
}
