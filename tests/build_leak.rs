//! Building a program leaves nothing behind once it is dropped.
//!
//! A pipeline owns its `Func`s through the handles its calls carry, so when
//! the built module and every `Func` handle are gone, so are the
//! definitions. A global allocator that tracks live heap bytes checks this
//! across repeated `AppKind::build`s: after a warm-up, building each
//! program many more times must leave the live heap where it was, up to a
//! small constant.
//!
//! This file holds one test, so no other test thread allocates while it
//! counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

use halide::pipelines::{apps::ScheduleChoice, AppKind};

/// Tracks the bytes currently allocated.
struct LiveBytes;

static LIVE: AtomicI64 = AtomicI64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments, so
// `System`'s guarantees are this allocator's; the counter is a statistic
// that publishes no other data.
unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: forwarded unchanged (see the impl's comment).
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: forwarded unchanged (see the impl's comment).
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        // SAFETY: forwarded unchanged (see the impl's comment).
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: forwarded unchanged (see the impl's comment).
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: LiveBytes = LiveBytes;

const W: i64 = 64;
const H: i64 = 48;
/// Builds of each program after the warm-up.
const BUILDS: usize = 20;
/// Live-heap growth allowed over all of them.
const BUDGET_BYTES: i64 = 64 << 10;

fn build_all() {
    for app in [AppKind::Blur, AppKind::Histogram, AppKind::CameraPipe] {
        for schedule in [ScheduleChoice::Naive, ScheduleChoice::Tuned] {
            app.build(W, H, schedule)
                .unwrap_or_else(|e| panic!("{} {schedule:?}: lowering failed: {e}", app.name()));
        }
    }
}

#[test]
fn repeated_builds_leave_the_live_heap_flat() {
    for _ in 0..3 {
        build_all();
    }
    let before = LIVE.load(Ordering::Relaxed);
    for _ in 0..BUILDS {
        build_all();
    }
    let growth = LIVE.load(Ordering::Relaxed) - before;
    println!(
        "live heap grew {growth} bytes over {BUILDS} builds of 6 programs \
         (budget {BUDGET_BYTES})"
    );
    assert!(
        growth < BUDGET_BYTES,
        "{BUILDS} builds of blur, histogram and camera pipe (naive and tuned) \
         grew the live heap by {growth} bytes, over the {BUDGET_BYTES}-byte budget"
    );
}
