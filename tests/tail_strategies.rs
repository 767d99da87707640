//! End-to-end tests of the split tail strategies (guard_with_if, predicate,
//! round_up): vectorizing dimensions whose extents the factor does not
//! divide, on both execution backends, bit-identical to the unscheduled
//! reference.

use halide::exec::{Backend, OptLevel, Realizer};
use halide::ir::{ScalarType, Type};
use halide::runtime::Buffer;
use halide::{lower, Func, ImageParam, Pipeline, TailStrategy, Var};

const W: i64 = 37; // deliberately not a multiple of the split factor
const H: i64 = 23;
const F: i64 = 8;

fn input_image(w: i64, h: i64) -> Buffer {
    Buffer::from_fn_2d(ScalarType::Float(32), w, h, |x, y| {
        (x * 3 + y * 7) as f64 * 0.25
    })
}

/// A two-stage pipeline (producer + consumer) whose output is `prefix_out`.
fn two_stage(prefix: &str) -> (ImageParam, Func, Func) {
    let input = ImageParam::new(format!("{prefix}_in"), Type::f32(), 2);
    let (x, y) = (Var::new("x"), Var::new("y"));
    let prod = Func::new(format!("{prefix}_prod"));
    prod.define(
        &[x.clone(), y.clone()],
        input.at_clamped(vec![x.expr() - 1, y.expr()])
            + input.at_clamped(vec![x.expr() + 1, y.expr()]),
    );
    let out = Func::new(format!("{prefix}_out"));
    out.define(
        &[x.clone(), y.clone()],
        prod.at(vec![x.expr(), y.expr()]) * 2.0f32 + 1.0f32,
    );
    (input, prod, out)
}

fn realize_all_engines(prefix: &str, out: &Func, input: &ImageParam) -> Vec<(String, Buffer)> {
    let module = lower(&Pipeline::new(out)).unwrap();
    let mut results = Vec::new();
    for backend in Backend::ALL {
        let levels: &[OptLevel] = match backend {
            Backend::Compiled => &[OptLevel::None, OptLevel::Default],
            Backend::Interp => &[OptLevel::Default],
        };
        for level in levels {
            let r = Realizer::new(&module)
                .input(input.name(), input_image(W, H))
                .backend(backend)
                .opt_level(*level)
                .realize(&[W, H])
                .unwrap_or_else(|e| panic!("{prefix} on {}/{level:?}: {e}", backend.name()));
            results.push((format!("{}/{level:?}", backend.name()), r.output));
        }
    }
    results
}

fn reference(prefix: &str) -> Buffer {
    let (input, _, out) = two_stage(&format!("{prefix}_ref"));
    let module = lower(&Pipeline::new(&out)).unwrap();
    Realizer::new(&module)
        .input(input.name(), input_image(W, H))
        .backend(Backend::Interp)
        .realize(&[W, H])
        .unwrap()
        .output
}

fn assert_all_match(prefix: &str, results: &[(String, Buffer)], expected: &Buffer) {
    for (label, got) in results {
        assert_eq!(
            got.max_abs_diff(expected),
            0.0,
            "{prefix} diverged from the reference on {label}"
        );
    }
}

#[test]
fn guard_with_if_vectorizes_non_dividing_output_extent() {
    let (input, _, out) = two_stage("tail_guard");
    out.split_dim_tail("x", "xo", "xi", F, TailStrategy::GuardWithIf)
        .vectorize_dim("xi");
    let expected = reference("tail_guard");
    let results = realize_all_engines("tail_guard", &out, &input);
    assert_all_match("guard_with_if", &results, &expected);
}

#[test]
fn predicate_vectorizes_non_dividing_output_extent() {
    let (input, _, out) = two_stage("tail_pred");
    out.split_dim_tail("x", "xo", "xi", F, TailStrategy::Predicate)
        .vectorize_dim("xi");
    let expected = reference("tail_pred");
    let results = realize_all_engines("tail_pred", &out, &input);
    assert_all_match("predicate", &results, &expected);
}

#[test]
fn predicate_tail_issues_masked_ops_with_counter_parity() {
    let (input, _, out) = two_stage("tail_pred_ctr");
    out.split_dim_tail("x", "xo", "xi", F, TailStrategy::Predicate)
        .vectorize_dim("xi");
    let module = lower(&Pipeline::new(&out)).unwrap();
    let mut snaps = Vec::new();
    for backend in Backend::ALL {
        let r = Realizer::new(&module)
            .input(input.name(), input_image(W, H))
            .backend(backend)
            .instrument(true)
            .realize(&[W, H])
            .unwrap();
        snaps.push((backend.name(), r.counters));
    }
    for (name, c) in &snaps {
        assert!(
            c.masked_stores > 0,
            "{name}: predicate tail should issue masked stores, counters: {c}"
        );
        assert!(
            c.dense_loads > 0,
            "{name}: the full tiles should still load densely, counters: {c}"
        );
    }
    let (a, b) = (&snaps[0], &snaps[1]);
    assert_eq!(
        (a.1.loads, a.1.stores, a.1.masked_loads, a.1.masked_stores),
        (b.1.loads, b.1.stores, b.1.masked_loads, b.1.masked_stores),
        "memory-op counters diverged between {} and {}",
        a.0,
        b.0
    );
}

#[test]
fn round_up_densifies_an_interior_producer() {
    let (input, prod, out) = two_stage("tail_roundup");
    prod.compute_root()
        .split_dim_tail("x", "xo", "xi", F, TailStrategy::RoundUp)
        .vectorize_dim("xi");
    let expected = reference("tail_roundup");
    let results = realize_all_engines("tail_roundup", &out, &input);
    assert_all_match("round_up", &results, &expected);

    // The rounded-up interior loops are fully dense: no per-tail masking.
    let module = lower(&Pipeline::new(&out)).unwrap();
    let r = Realizer::new(&module)
        .input(input.name(), input_image(W, H))
        .instrument(true)
        .realize(&[W, H])
        .unwrap();
    assert!(r.counters.dense_stores > 0, "counters: {}", r.counters);
    assert_eq!(r.counters.masked_stores, 0, "counters: {}", r.counters);
}

#[test]
fn tail_strategies_allow_extents_smaller_than_the_factor() {
    // 5-wide output split by 8: shift-inwards must refuse at run time, the
    // guard strategies must produce correct results.
    for (label, tail) in [
        ("guard_with_if", TailStrategy::GuardWithIf),
        ("predicate", TailStrategy::Predicate),
    ] {
        let (input, _, out) = two_stage(&format!("tail_small_{label}"));
        out.split_dim_tail("x", "xo", "xi", F, tail)
            .vectorize_dim("xi");
        let module = lower(&Pipeline::new(&out)).unwrap();
        let r = Realizer::new(&module)
            .input(input.name(), input_image(5, H))
            .realize(&[5, H])
            .unwrap_or_else(|e| panic!("{label} on a 5-wide output: {e}"));
        assert_eq!(r.output.at_f64(&[2, 3]), {
            let i = |x: i64, y: i64| (x * 3 + y * 7) as f64 * 0.25;
            (i(1, 3) + i(3, 3)) as f32 as f64 * 2.0 + 1.0
        });
    }
}

#[test]
fn vectorizing_a_non_constant_extent_names_the_dim_and_suggests_strategies() {
    let input = ImageParam::new("tail_diag_in", Type::f32(), 2);
    let (x, y) = (Var::new("x"), Var::new("y"));
    let out = Func::new("tail_diag_out");
    out.define(
        &[x.clone(), y.clone()],
        input.at_clamped(vec![x.expr(), y.expr()]),
    );
    out.vectorize_dim("x"); // no split: the extent is the symbolic output width
    let err = lower(&Pipeline::new(&out)).unwrap_err().to_string();
    assert!(err.contains("tail_diag_out.x"), "diagnostic: {err}");
    assert!(err.contains("extent"), "diagnostic: {err}");
    assert!(
        err.contains("guard_with_if") && err.contains("predicate") && err.contains("round_up"),
        "diagnostic should suggest the tail strategies: {err}"
    );
}

#[test]
fn round_up_on_the_output_is_rejected() {
    let (_, _, out) = two_stage("tail_roundup_out");
    out.split_dim_tail("x", "xo", "xi", F, TailStrategy::RoundUp)
        .vectorize_dim("xi");
    let err = lower(&Pipeline::new(&out)).unwrap_err().to_string();
    assert!(err.contains("round_up"), "error: {err}");
    assert!(err.contains("caller-allocated"), "error: {err}");
}

/// A producer read through a 3-wide stencil by the output `prefix_out`.
fn stencil_consumer(prefix: &str) -> (ImageParam, Func, Func) {
    let input = ImageParam::new(format!("{prefix}_in"), Type::f32(), 2);
    let (x, y) = (Var::new("x"), Var::new("y"));
    let prod = Func::new(format!("{prefix}_prod"));
    prod.define(
        &[x.clone(), y.clone()],
        input.at_clamped(vec![x.expr(), y.expr()]) * 3.0f32,
    );
    let out = Func::new(format!("{prefix}_out"));
    out.define(
        &[x.clone(), y.clone()],
        prod.at(vec![x.expr() - 1, y.expr()]) + prod.at(vec![x.expr() + 1, y.expr()]),
    );
    (input, prod, out)
}

#[test]
fn predicate_tail_does_not_widen_its_producer() {
    // A 96-wide output split by 64: the tail's masked lanes reach x = 127,
    // but the guard bounds them at 95, so the producer spans the output plus
    // the stencil (98 columns), not the rounded-up 130.
    const WIDE: i64 = 96;
    let (input, prod, out) = stencil_consumer("tail_pred_bounds");
    prod.compute_root();
    out.split_dim_tail("x", "xo", "xi", 64, TailStrategy::Predicate)
        .vectorize_dim("xi");
    let module = lower(&Pipeline::new(&out)).unwrap();
    let (ref_input, _, ref_out) = stencil_consumer("tail_pred_bounds_ref");
    let ref_module = lower(&Pipeline::new(&ref_out)).unwrap();
    let expected = Realizer::new(&ref_module)
        .input(ref_input.name(), input_image(WIDE, H))
        .backend(Backend::Interp)
        .realize(&[WIDE, H])
        .unwrap()
        .output;
    for backend in Backend::ALL {
        let r = Realizer::new(&module)
            .input(input.name(), input_image(WIDE, H))
            .backend(backend)
            .instrument(true)
            .realize(&[WIDE, H])
            .unwrap_or_else(|e| panic!("{}: {e}", backend.name()));
        assert_eq!(
            r.output.max_abs_diff(&expected),
            0.0,
            "{} diverged from the reference",
            backend.name()
        );
        assert!(r.counters.masked_stores > 0, "counters: {}", r.counters);
        assert_eq!(
            r.counters.bytes_allocated,
            ((WIDE + 2) * H * 4) as u64,
            "{}: the producer should be allocated at the output's extent plus the stencil",
            backend.name()
        );
    }
}
