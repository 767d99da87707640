//! Differential tests between the two execution engines.
//!
//! The compiled register machine (`Backend::Compiled`, the default) is
//! defined to be observationally identical to the tree-walking interpreter
//! (`Backend::Interp`, the reference semantics): **bit-identical** outputs
//! and identical structural counters (allocations, parallel tasks, kernel
//! launches) on every pipeline — and so is the compiled engine at every
//! optimizer level: each test realizes the interpreter once and compares
//! it against `OptLevel::None` (raw linearize → emit) and
//! `OptLevel::Default` (the full pass pipeline), so an optimizer pass that
//! changes a single bit or drops a single counted operation fails here.
//! These tests drive the matrix over random schedules of blur, over every
//! benchmark app, and over a deep multi-stage app (interpolate).

use proptest::prelude::*;

use halide::exec::{Backend, OptLevel, Program, Realizer};
use halide::pipelines::blur::{make_input, BlurApp};
use halide::pipelines::interpolate::{self, InterpolateApp};
use halide::runtime::{Buffer, CounterSnapshot};
use halide::Module;

/// Realizes `module` on the interpreter and on the compiled engine at both
/// optimizer levels, with identical bindings, and asserts bit-identical
/// outputs plus identical structural counters across all three. Returns
/// the counters of the optimized compiled realization.
fn assert_backends_identical(
    module: &Module,
    input_name: &str,
    input: &Buffer,
    extents: &[i64],
    threads: usize,
    what: &str,
) -> CounterSnapshot {
    let run = |backend: Backend, opt: OptLevel| {
        Realizer::new(module)
            .input(input_name.to_string(), input.clone())
            .threads(threads)
            .backend(backend)
            .opt_level(opt)
            .realize(extents)
            .unwrap_or_else(|e| panic!("{what}: {} backend failed: {e}", backend.name()))
    };
    let interp = run(Backend::Interp, OptLevel::Default);
    let b = interp.output.to_f64_vec();
    // `peak_bytes_live` depends on how many parallel iterations happen to
    // overlap in time, so it is excluded; everything else — including the
    // per-op counters — must agree.
    let mut r = interp.counters;
    r.peak_bytes_live = 0;

    let mut counters = r;
    for (label, opt) in [
        ("opt=none", OptLevel::None),
        ("opt=default", OptLevel::Default),
    ] {
        let compiled = run(Backend::Compiled, opt);

        // Bit-identical outputs: compare exact f64 bit patterns, not a
        // tolerance.
        let a = compiled.output.to_f64_vec();
        assert_eq!(a.len(), b.len(), "{what} [{label}]: output sizes differ");
        for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
            assert!(
                x.to_bits() == y.to_bits(),
                "{what} [{label}]: outputs diverge at flat index {i}: compiled {x} vs interp {y}"
            );
        }

        let mut c = compiled.counters;
        c.peak_bytes_live = 0;
        assert_eq!(
            c, r,
            "{what} [{label}]: counters diverge between compiled and interpreting backends"
        );
        counters = compiled.counters;
    }
    counters
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random valid blur schedules produce bit-identical outputs and
    /// counters on both backends.
    #[test]
    fn random_blur_schedules_agree_across_backends(
        split_x in prop_oneof![Just(8i64), Just(16), Just(32)],
        split_y in prop_oneof![Just(4i64), Just(8), Just(16)],
        parallel_outer in any::<bool>(),
        vectorize_inner in any::<bool>(),
        fuse_choice in 0u8..4,
        threads in 1usize..4,
    ) {
        let input = make_input(67, 49);
        let app = BlurApp::new();
        app.out.tile_dims("x", "y", "xo", "yo", "xi", "yi", split_x, split_y);
        if parallel_outer {
            app.out.parallelize("yo");
        }
        if vectorize_inner {
            app.out.split_dim("xi", "xio", "xii", 4).vectorize_dim("xii");
        }
        match fuse_choice {
            0 => { app.blurx.compute_root(); }
            1 => { app.blurx.compute_at(&app.out, "xo"); }
            2 => {
                app.blurx.compute_at(&app.out, "yo");
                app.blurx.store_root();
            }
            _ => { app.blurx.compute_inline(); }
        }
        let module = halide::lower(&app.pipeline()).expect("valid schedule must lower");
        assert_backends_identical(
            &module,
            "blur_input",
            &input,
            &[67, 49],
            threads,
            &format!(
                "blur sx={split_x} sy={split_y} par={parallel_outer} vec={vectorize_inner} fuse={fuse_choice}"
            ),
        );
    }
}

/// The predicated, vectorized tuned schedules: the camera pipe (masked
/// selects, clamped gathers, dense vector memory ops) and the bilateral
/// grid (data-dependent trilinear gathers) — the shapes the compiled
/// engine's whole-register blend and bulk gather/scatter paths cover, each
/// with its per-lane interpreter twin. Counters include the access-pattern
/// classification, so the two engines must also agree on *how* every
/// vector access was performed.
#[test]
fn vectorized_camera_pipe_agrees_across_backends() {
    let app = halide::pipelines::camera_pipe::CameraPipeApp::new(2.2, 0.8);
    app.schedule_good();
    let module = halide::lower(&app.pipeline()).expect("tuned camera pipe lowers");
    let input = halide::pipelines::camera_pipe::make_raw_input(67, 49);
    assert_backends_identical(
        &module,
        app.input.name(),
        &input,
        &[67, 49, 3],
        2,
        "camera pipe (tuned, vectorized)",
    );
}

#[test]
fn vectorized_bilateral_grid_agrees_across_backends() {
    let app = halide::pipelines::bilateral_grid::BilateralGridApp::new();
    app.schedule_good();
    let module = halide::lower(&app.pipeline()).expect("tuned bilateral grid lowers");
    let input = halide::pipelines::bilateral_grid::make_input(48, 40);
    assert_backends_identical(
        &module,
        app.input.name(),
        &input,
        &[48, 40],
        2,
        "bilateral grid (tuned, vectorized)",
    );
}

/// Every benchmark app under its naive and tuned schedules, through the
/// full backend × optimizer-level matrix. Odd sizes so split/vectorize
/// boundary (tail) paths are exercised, not just whole tiles.
///
/// The same loop holds the deterministic gates on those programs: every
/// tuned schedule issues dense vector loads, the optimizer never grows a
/// program, and it removes at least 10% of the tuned camera pipe.
#[test]
fn every_app_agrees_across_backends_and_opt_levels() {
    use halide::pipelines::{apps::ScheduleChoice, AppKind};
    let (w, h) = (67, 49);
    for app in AppKind::ALL {
        for (schedule, label) in [
            (ScheduleChoice::Naive, "naive"),
            (ScheduleChoice::Tuned, "tuned"),
        ] {
            let built = app
                .build(w, h, schedule)
                .unwrap_or_else(|e| panic!("{} ({label}): lowering failed: {e}", app.name()));
            let input = app.make_input(w, h);
            let counters = assert_backends_identical(
                &built.module,
                &built.input_name,
                &input,
                &app.output_extents(w, h),
                2,
                &format!("{} ({label})", app.name()),
            );
            // No silently-scalar "tuned" schedules. The pyramid apps sat at
            // zero for several releases because their odd, halving extents
            // defeated divisibility-only vectorization; predicated tails
            // removed that excuse.
            if schedule == ScheduleChoice::Tuned {
                assert!(
                    counters.dense_loads > 0,
                    "the tuned {} schedule performs no dense vector loads — it is \
                     silently scalar; vectorize it (non-dividing extents take a tail \
                     strategy: guard_with_if, predicate, or round_up)",
                    app.name()
                );
            }

            let program = Program::compile_with(&built.module, OptLevel::Default)
                .unwrap_or_else(|e| panic!("{} ({label}): compile failed: {e}", app.name()));
            let r = program.opt_report();
            assert!(
                r.after_insts <= r.before_insts,
                "the optimizer grew {} ({label}): {} -> {} instructions",
                app.name(),
                r.before_insts,
                r.after_insts
            );
            // The schedule the pass pipeline was sized against.
            if app == AppKind::CameraPipe && schedule == ScheduleChoice::Tuned {
                let reduction = 1.0 - r.after_insts as f64 / r.before_insts as f64;
                assert!(
                    reduction >= 0.10,
                    "the optimizer must remove at least 10% of the tuned camera pipe's \
                     instructions, got {:.1}% ({} -> {})",
                    reduction * 100.0,
                    r.before_insts,
                    r.after_insts
                );
            }
        }
    }
}

/// The 64-lane tuned schedules at shapes their vectors do not divide: the
/// output's predicated tail is masked, and the guard narrows what it asks
/// of the producers, so any error in that narrowing reads or keeps
/// uncomputed pixels. Both engines run the same lowered program, so the
/// interpreter also realizes the naive schedule as the oracle for the
/// lowering itself. Tuned blur needs at least 32 rows (its strip split
/// shifts inwards), so it skips 129x31. Tuned histogram also runs
/// sub-vector, single-row and whole-vector shapes, where its factored
/// reduction's guarded `r.x` tail is partial or empty. The pyramid apps
/// run 128/64/32/16 lanes by level, and at these shapes every coarse
/// level is narrower than its vector, so its region grows to one vector
/// and the levels below it are asked for the grown region; their float
/// sums may round differently from the naive schedule's, within the
/// benchmark oracle's tolerance.
#[test]
fn wide_vector_schedules_agree_across_backends_at_tail_shapes() {
    use halide::pipelines::{apps::ScheduleChoice, AppKind};
    for app in [
        AppKind::Blur,
        AppKind::CameraPipe,
        AppKind::Histogram,
        AppKind::Interpolate,
        AppKind::LocalLaplacian,
    ] {
        // Histogram's factored reduction also guards a 64-wide split of
        // `r.x`, so it runs the sub-vector and single-row shapes too. Local
        // Laplacian is the slowest to interpret, so it runs two shapes.
        let shapes: &[(i64, i64)] = match app {
            AppKind::LocalLaplacian => &[(67, 49), (129, 31)],
            AppKind::Histogram => &[
                (1, 1),
                (3, 9),
                (7, 5),
                (63, 1),
                (65, 33),
                (67, 49),
                (96, 64),
                (129, 31),
            ],
            _ => &[(67, 49), (65, 33), (129, 31)],
        };
        for &(w, h) in shapes {
            if app == AppKind::Blur && h < 32 {
                continue;
            }
            let what = format!("{} (tuned, wide vectors) {w}x{h}", app.name());
            let input = app.make_input(w, h);
            let extents = app.output_extents(w, h);
            let interp = |schedule| {
                let built = app
                    .build(w, h, schedule)
                    .unwrap_or_else(|e| panic!("{what}: lowering failed: {e}"));
                let output = Realizer::new(&built.module)
                    .input(built.input_name.clone(), input.clone())
                    .backend(Backend::Interp)
                    .realize(&extents)
                    .unwrap_or_else(|e| panic!("{what}: {e}"))
                    .output;
                (built, output)
            };
            let (built, tuned) = interp(ScheduleChoice::Tuned);
            let (_, naive) = interp(ScheduleChoice::Naive);
            let tolerance = match app {
                AppKind::Interpolate | AppKind::LocalLaplacian => 1e-4,
                _ => 0.0,
            };
            let (t, n) = (tuned.to_f64_vec(), naive.to_f64_vec());
            assert_eq!(t.len(), n.len(), "{what}: output sizes differ");
            for (i, (a, b)) in t.iter().zip(&n).enumerate() {
                // Not `max_abs_diff`: it drops NaN.
                assert!(
                    (a - b).abs() <= tolerance,
                    "{what}: differs from the naive schedule at flat index {i}: {a} vs {b}"
                );
            }
            if app == AppKind::Histogram {
                let expected = halide::pipelines::histogram::reference(&input);
                assert_eq!(
                    tuned.max_abs_diff(&expected),
                    0.0,
                    "{what}: differs from the reference"
                );
            }
            assert_backends_identical(&built.module, &built.input_name, &input, &extents, 2, &what);
        }
    }
}

/// Odd and sub-vector output extents under vectorized schedules: shapes
/// where the vector width never divides the extent (7×5 with factor 4 is
/// one whole vector plus a 3-lane tail per row; 5×4 leaves a single-lane
/// tail), degenerate single-row images (9×1), and a single-column image
/// (1×23, vectorized along y because a split factor may not exceed the
/// extent it splits). Every realize hits the predicated masked-lane tail
/// path on most or all iterations. The fuzzer found its first real
/// miscompilations near this corner, so the matrix is pinned here
/// deterministically too.
#[test]
fn odd_and_sub_vector_extents_agree_across_backends() {
    // (width, height, vectorized dim, factor): factor ≤ extent, never
    // dividing it, so the tail predicate is live in every case.
    for &(w, h, dim, factor) in &[
        (7i64, 5i64, "x", 4i64),
        (7, 5, "x", 2),
        (5, 4, "x", 4),
        (9, 1, "x", 4),
        (1, 23, "y", 4),
        (1, 23, "y", 8),
    ] {
        for &par in &[false, true] {
            let input = make_input(w, h);
            let app = BlurApp::new();
            let (outer, inner) = (format!("{dim}o"), format!("{dim}i"));
            app.out
                .split_dim(dim, &outer, &inner, factor)
                .vectorize_dim(&inner);
            // Parallelize whichever spatial dim was not vectorized.
            if par {
                app.out.parallelize(if dim == "x" { "y" } else { "x" });
            }
            app.blurx.compute_root();
            let module = halide::lower(&app.pipeline()).expect("valid schedule must lower");
            assert_backends_identical(
                &module,
                "blur_input",
                &input,
                &[w, h],
                2,
                &format!("blur {w}x{h} vec {dim} by {factor} par={par} (tail-heavy vectorization)"),
            );
        }
    }
}

/// The same odd shapes through a compute_at producer, so the *producer's*
/// per-consumer-iteration region also lands on odd sub-vector extents.
#[test]
fn odd_extents_with_fused_producer_agree_across_backends() {
    for &(w, h) in &[(7i64, 5i64), (5, 4), (9, 3)] {
        let input = make_input(w, h);
        let app = BlurApp::new();
        app.out.split_dim("x", "xo", "xi", 4).vectorize_dim("xi");
        app.blurx.compute_at(&app.out, "y");
        let module = halide::lower(&app.pipeline()).expect("valid schedule must lower");
        assert_backends_identical(
            &module,
            "blur_input",
            &input,
            &[w, h],
            2,
            &format!("blur {w}x{h} fused producer, vectorized consumer"),
        );
    }
}

/// A deep multi-stage app: interpolate, under its three schedule flavours.
#[test]
fn interpolate_agrees_across_backends_on_every_schedule() {
    let input = interpolate::make_input(64, 48);
    for flavour in ["naive", "tuned", "tiled"] {
        let app = InterpolateApp::new(3);
        match flavour {
            "tuned" => app.schedule_good(),
            "tiled" => app.schedule_tiled(),
            _ => {}
        }
        let module = halide::lower(&app.pipeline()).expect("interpolate lowers");
        assert_backends_identical(
            &module,
            app.input.name(),
            &input,
            &[64, 48],
            2,
            &format!("interpolate ({flavour})"),
        );
    }
}
