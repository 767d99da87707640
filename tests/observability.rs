//! End-to-end tests for the observability layer: the sampling per-Func
//! profiler must report *exact* invocation counts that agree between the
//! two execution engines (they are counted, not sampled), and its
//! statistical time attribution must account for essentially all of the
//! realize wall time.

use std::time::Duration;

use halide::exec::{Backend, Realizer};
use halide::pipelines::{AppKind, ScheduleChoice};

/// Realizes `app`'s tuned schedule once with profiling on and returns the
/// per-Func invocation counts, sorted by name. The module is built once
/// by the caller and shared across backends, so both engines run the
/// same lowered program.
fn profiled_invocations(
    app: AppKind,
    built: &halide::pipelines::apps::BuiltApp,
    w: i64,
    h: i64,
    backend: Backend,
) -> Vec<(String, u64)> {
    let realizer = Realizer::new(&built.module)
        .input(built.input_name.clone(), app.make_input(w, h))
        .backend(backend)
        .profile(true);
    realizer
        .realize(&app.output_extents(w, h))
        .expect("tuned app runs");
    let report = realizer.profile_report().expect("profiling was enabled");
    let mut counts: Vec<(String, u64)> = report
        .funcs
        .iter()
        .filter(|f| f.invocations > 0)
        .map(|f| (f.name.clone(), f.invocations))
        .collect();
    counts.sort();
    counts
}

/// Invocation counts are exact (one atomic add per produce-nest entry),
/// so the interpreter and the compiled register machine must agree on
/// them Func for Func — a divergence means one engine entered a produce
/// nest the other didn't, i.e. the engines don't compute the same thing.
#[test]
fn per_func_invocation_counts_agree_across_backends() {
    for (app, w, h) in [(AppKind::Blur, 64, 48), (AppKind::CameraPipe, 64, 48)] {
        let built = app
            .build(w, h, ScheduleChoice::Tuned)
            .expect("tuned app lowers");
        let interp = profiled_invocations(app, &built, w, h, Backend::Interp);
        let compiled = profiled_invocations(app, &built, w, h, Backend::Compiled);
        assert!(
            !interp.is_empty(),
            "{}: the profiler counted no produce entries",
            app.name()
        );
        assert_eq!(
            interp,
            compiled,
            "{}: per-Func invocation counts diverge between engines",
            app.name()
        );
    }
}

/// The sampler's time attribution is statistical, but it must converge:
/// over repeated realizations of the tuned camera pipe, at least 90% of
/// the in-run samples land inside a named Func's produce nest, and the
/// per-Func estimated times sum to the same fraction of the measured
/// wall time (they are defined as wall x samples-share).
#[test]
fn attributed_time_approximates_realize_wall_time() {
    let app = AppKind::CameraPipe;
    let (w, h) = (128, 96);
    let built = app
        .build(w, h, ScheduleChoice::Tuned)
        .expect("tuned camera pipe lowers");
    let realizer = Realizer::new(&built.module)
        .input(built.input_name.clone(), app.make_input(w, h))
        .profile(true);
    // Accumulate runs until the sample count is statistically meaningful
    // (the sampler ticks every millisecond; debug-mode runs are long
    // enough that a handful of realizations suffice).
    for _ in 0..50 {
        realizer
            .realize(&app.output_extents(w, h))
            .expect("tuned camera pipe runs");
        let samples = realizer
            .profile_report()
            .expect("profiling was enabled")
            .total_samples;
        if samples >= 200 {
            break;
        }
    }
    let report = realizer.profile_report().expect("profiling was enabled");
    assert!(
        report.total_samples > 0,
        "repeated profiled realizations were never sampled"
    );
    let frac = report.attributed_frac();
    assert!(
        frac >= 0.90,
        "only {:.1}% of {} samples were attributed to named Funcs",
        frac * 100.0,
        report.total_samples
    );
    let attributed: Duration = report.funcs.iter().map(|f| f.est_time).sum();
    let ratio = attributed.as_secs_f64() / report.total_wall.as_secs_f64().max(1e-12);
    assert!(
        (ratio - frac).abs() < 0.01 && ratio >= 0.90,
        "per-Func estimated times sum to {:.1}% of the {:.3}ms wall time",
        ratio * 100.0,
        report.total_wall.as_secs_f64() * 1e3
    );
}
