//! Heap-allocation budget of a warm, tuned realize.
//!
//! A counting global allocator wraps the system one, and each app of the
//! benchmark's realize workloads is realized tuned on one thread: twice to
//! warm every cache (the per-thread vector free lists included), then once
//! counted — constructing the realizer and realizing, what a compile-once
//! caller pays per call. The figure is heap allocations per output pixel.
//!
//! The budgets are a tenth of what the register machine allocated before
//! vector registers were recycled, when every vector result, load, slot
//! read and materialized ramp was a fresh `Box` plus `Vec`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use halide::exec::{OptLevel, Program, Realizer};
use halide::pipelines::{apps::ScheduleChoice, AppKind};

/// Counts every allocation and reallocation; frees are not counted.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments, so
// `System`'s guarantees are this allocator's; the counter is a statistic
// that publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded unchanged (see the impl's comment).
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded unchanged (see the impl's comment).
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded unchanged (see the impl's comment).
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged (see the impl's comment).
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const W: i64 = 256;
const H: i64 = 192;

/// Heap allocations per output pixel of one warm tuned realize at `W`×`H`
/// on one thread, measured by this file before vector registers were
/// recycled (the benchmark's realize apps, in its order).
const BEFORE: [(AppKind, f64); 5] = [
    (AppKind::Blur, 0.87),
    (AppKind::Histogram, 0.59),
    (AppKind::CameraPipe, 25.8),
    (AppKind::Interpolate, 4.26),
    (AppKind::LocalLaplacian, 16.5),
];

/// Allocations per output pixel of one warm realize of `app`, tuned.
fn allocations_per_pixel(app: AppKind) -> f64 {
    let built = app
        .build(W, H, ScheduleChoice::Tuned)
        .unwrap_or_else(|e| panic!("{}: lowering failed: {e}", app.name()));
    let program = Arc::new(
        Program::compile_with(&built.module, OptLevel::Default)
            .unwrap_or_else(|e| panic!("{}: compile failed: {e}", app.name())),
    );
    let input = Arc::new(app.make_input(W, H));
    let extents = app.output_extents(W, H);
    let realize = || {
        Realizer::with_program(&built.module, Arc::clone(&program))
            .input_shared(built.input_name.clone(), Arc::clone(&input))
            .threads(1)
            .instrument(false)
            .realize(&extents)
            .unwrap_or_else(|e| panic!("{}: realize failed: {e}", app.name()))
    };
    for _ in 0..2 {
        drop(realize());
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let realization = realize();
    let count = ALLOCATIONS.load(Ordering::Relaxed) - before;
    drop(realization);
    count as f64 / (W * H) as f64
}

/// One test, so no other test thread allocates while a realize is counted.
#[test]
fn warm_tuned_realizes_stay_within_their_allocation_budget() {
    let mut failures = Vec::new();
    for (app, before) in BEFORE {
        let now = allocations_per_pixel(app);
        println!(
            "{:>16}: {now:.4} heap allocations per pixel (before recycling: {before:.2})",
            app.slug()
        );
        if now > before / 10.0 {
            failures.push(format!(
                "{}: {now:.4} per pixel is over a tenth of {before:.2}",
                app.slug()
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("; "));
}
