//! Recording into an existing counter or histogram inside an open span
//! must not allocate: the inference pipeline bumps several counters per
//! oracle measurement, and a measurement costs only a microsecond or
//! two, so a heap allocation per call would be a visible share of it.
//!
//! A counting global allocator tallies the allocations made by the test
//! thread while counting is switched on.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn note_allocation() {
    if COUNTING.with(Cell::get) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every call forwards to the system allocator unchanged; the
// only addition is a relaxed counter bump.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations the calling thread makes while running `f`.
fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

#[test]
fn repeated_records_inside_a_three_deep_span_allocate_nothing() {
    cachekit_obs::set_enabled(true);
    let outer = cachekit_obs::span("infer_geometry");
    let middle = cachekit_obs::span("infer_associativity");
    let inner = cachekit_obs::span("read_out");
    // The first insert of each key (and histogram bucket) may allocate;
    // every later one must not.
    cachekit_obs::add("oracle.measurements", 1);
    for value in 0..8 {
        cachekit_obs::record("oracle.backoff_slots", value);
    }
    let allocations = allocations_during(|| {
        for i in 0..10_000u64 {
            cachekit_obs::add("oracle.measurements", 1);
            cachekit_obs::record("oracle.backoff_slots", i % 8);
        }
    });
    assert_eq!(allocations, 0, "allocations in 10,000 add/record pairs");
    drop(inner);
    drop(middle);
    drop(outer);

    let snap = cachekit_obs::snapshot();
    assert_eq!(
        snap.counters["infer_geometry/infer_associativity/read_out/oracle.measurements"],
        10_001
    );
    assert_eq!(snap.histograms["oracle.backoff_slots"].total(), 10_008);
}
