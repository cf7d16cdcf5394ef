//! Deterministic work-count gate on the database's read caches: a
//! memoized `Database::search` and a cached `Database::select_eq` may
//! allocate only the result set they return. The probe hashes borrowed
//! fields and compares stored keys in place, so a hit builds no key.
//!
//! The file installs a counting global allocator and holds exactly one
//! test, so nothing else runs in this binary while it counts; the
//! counter is per thread besides.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mcommerce::hostsite::db::{Database, Value};

/// Allocations allowed per cache hit: the returned `Vec`.
const BUDGET: u64 = 1;

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

/// Allocations made by `f` on this thread.
fn allocs_in<T>(f: impl FnOnce() -> T) -> u64 {
    let before = allocs();
    let out = f();
    let spent = allocs() - before;
    drop(out);
    spent
}

#[test]
fn cache_hits_allocate_only_their_result() {
    let mut db = Database::new();
    db.create_table("products", &["sku", "name", "tag"], &["tag"])
        .unwrap();
    for (sku, name) in [(1, "blue widget"), (2, "red widget"), (3, "gadget")] {
        db.insert("products", vec![sku.into(), name.into(), "shop".into()])
            .unwrap();
    }
    db.create_fts("products", "name").unwrap();
    db.set_query_cache(true);

    // Warm both caches, then count a hit on each.
    let query = String::from("widget");
    let tag = Value::from("shop");
    assert_eq!(db.search("products", &query).unwrap().len(), 2);
    assert_eq!(db.select_eq("products", "tag", &tag).unwrap().len(), 3);

    let search = allocs_in(|| db.search("products", &query).unwrap());
    assert!(
        search <= BUDGET,
        "a memoized search took {search} allocations (budget {BUDGET})"
    );
    let select = allocs_in(|| db.select_eq("products", "tag", &tag).unwrap());
    assert!(
        select <= BUDGET,
        "a cached select_eq took {select} allocations (budget {BUDGET})"
    );
}
