//! Cross-crate integration tests: algorithm definition → scheduling →
//! compilation → execution, exercised through the public facade crate.

use halide::ir::{ScalarType, Type};
use halide::pipelines::blur::{make_input, reference, BlurApp, BlurSchedule};
use halide::runtime::Buffer;
use halide::{lower, Func, ImageParam, Pipeline, Realizer, Var};

/// The central property of the paper: schedules change performance, never
/// results. Every schedule of Fig. 3 produces the reference image.
#[test]
fn schedules_never_change_results() {
    let input = make_input(96, 70);
    let expected = reference(&input);
    for schedule in BlurSchedule::ALL {
        let app = BlurApp::new();
        let module = app.compile(schedule).unwrap();
        for threads in [1, 4] {
            let result = app.run(&module, &input, threads, false).unwrap();
            assert!(
                result.output.max_abs_diff(&expected) < 1e-4,
                "{} with {threads} threads diverged",
                schedule.label()
            );
        }
    }
}

/// A pipeline defined through the facade crate compiles and runs, and
/// scheduling directives applied after definition change the generated loop
/// structure.
#[test]
fn facade_quickstart_roundtrip() {
    let input = ImageParam::new("e2e_input", Type::f32(), 2);
    let (x, y) = (Var::new("x"), Var::new("y"));
    let gradient = Func::new("e2e_gradient");
    gradient.define(
        &[x.clone(), y.clone()],
        input.at_clamped(vec![x.expr() + 1, y.expr()])
            - input.at_clamped(vec![x.expr() - 1, y.expr()]),
    );
    let magnitude = Func::new("e2e_magnitude");
    magnitude.define(
        &[x.clone(), y.clone()],
        gradient.at(vec![x.expr(), y.expr()]).abs(),
    );

    magnitude.split_dim("y", "yo", "yi", 8).parallelize("yo");
    gradient.compute_at(&magnitude, "yo");

    let module = lower(&Pipeline::new(&magnitude)).unwrap();
    assert!(module.pretty().contains("parallel for"));

    let image = Buffer::from_fn_2d(ScalarType::Float(32), 32, 32, |x, _| (x * x) as f64);
    let result = Realizer::new(&module)
        .input("e2e_input", image)
        .threads(2)
        .realize(&[32, 32])
        .unwrap();
    // d(x^2)/dx ~ 2x over a central difference of width 2 => (x+1)^2-(x-1)^2 = 4x
    assert_eq!(result.output.at_f64(&[5, 10]), 20.0);
}

/// The compiler refuses invalid schedules instead of generating wrong code,
/// and the executor refuses invalid realizations.
#[test]
fn errors_are_reported_not_ignored() {
    let app = BlurApp::new();
    app.blurx.compute_at(&app.out, "does_not_exist");
    assert!(lower(&app.pipeline()).is_err());

    let app2 = BlurApp::new();
    let module = app2.compile(BlurSchedule::BreadthFirst).unwrap();
    // missing input binding
    assert!(Realizer::new(&module).realize(&[16, 16]).is_err());
    // wrong output dimensionality
    let input = make_input(16, 16);
    assert!(Realizer::new(&module)
        .input(app2.input.name(), input)
        .realize(&[16])
        .is_err());
}

/// Counters expose the locality / recomputation tradeoff of Sec. 3: fusion
/// amplifies work, breadth-first execution maximizes the live working set.
#[test]
fn counters_reflect_the_tradeoff_space() {
    let input = make_input(128, 96);
    let run = |schedule| {
        let app = BlurApp::new();
        let module = app.compile(schedule).unwrap();
        app.run(&module, &input, 1, true).unwrap().counters
    };
    let breadth_first = run(BlurSchedule::BreadthFirst);
    let fused = run(BlurSchedule::FullFusion);
    let sliding = run(BlurSchedule::SlidingWindow);

    assert!(fused.arith_ops as f64 > breadth_first.arith_ops as f64 * 1.5);
    assert!(fused.peak_bytes_live < breadth_first.peak_bytes_live / 8);
    assert!(sliding.arith_ops < fused.arith_ops);
    assert!(sliding.peak_bytes_live < breadth_first.peak_bytes_live / 4);
}

/// 16x16 tiles processed in parallel, with the producer computed per tile,
/// produce the same image as the 32x32 `Tiled` schedule.
#[test]
fn parallel_tiles_match_tiled_results() {
    let input = make_input(64, 64);
    let reference_app = BlurApp::new();
    let reference_module = reference_app.compile(BlurSchedule::Tiled).unwrap();
    let expected = reference_app
        .run(&reference_module, &input, 2, false)
        .unwrap();

    let app = BlurApp::new();
    app.out
        .tile_dims("x", "y", "xo", "yo", "xi", "yi", 16, 16)
        .parallelize("yo");
    app.blurx.compute_at(&app.out, "xo");
    let module = lower(&app.pipeline()).unwrap();
    let result = app.run(&module, &input, 2, false).unwrap();

    assert!(expected.output.max_abs_diff(&result.output) < 1e-4);
    assert!(result.counters.parallel_tasks > 0);
}
