//! Property-based tests over the compiler's core invariants, using proptest.
//!
//! These check the properties the paper's design depends on:
//! * the simplifier never changes the value of an expression;
//! * interval analysis is sound (the true value always lies inside the
//!   inferred bounds);
//! * schedules — random compositions of valid directives — never change the
//!   result of a pipeline, only its cost.

use proptest::prelude::*;

use halide::exec::{eval_expr, Backend, Context, Frame, OptLevel, Realization, Realizer};
use halide::ir::interval::bounds_of_expr_in_scope;
use halide::ir::{simplify, Expr, Interval, Scope};
use halide::pipelines::blur::{make_input, reference, BlurApp};
use halide::runtime::{Buffer, ThreadPool, Value};
use halide::Module;

/// Builds a random integer expression over variables `a` and `b`.
fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (-20i32..20).prop_map(Expr::int),
        Just(Expr::var_i32("a")),
        Just(Expr::var_i32("b")),
    ];
    leaf.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(x, y)| x + y),
            (inner.clone(), inner.clone()).prop_map(|(x, y)| x - y),
            (inner.clone(), inner.clone()).prop_map(|(x, y)| x * y),
            (inner.clone(), inner.clone()).prop_map(|(x, y)| Expr::min(x, y)),
            (inner.clone(), inner.clone()).prop_map(|(x, y)| Expr::max(x, y)),
            (inner.clone(), inner.clone()).prop_map(|(x, y)| Expr::select(
                Expr::lt(x.clone(), y.clone()),
                x,
                y
            )),
            (inner.clone(), (1i32..8)).prop_map(|(x, d)| x / d),
            (inner, (1i32..8)).prop_map(|(x, d)| x % d),
        ]
    })
}

/// Realizes a lowered blur over all of `input` on one engine.
fn realize(
    module: &Module,
    app: &BlurApp,
    input: &Buffer,
    backend: Backend,
    opt: OptLevel,
) -> Realization {
    Realizer::new(module)
        .input(app.input.name(), input.clone())
        .threads(2)
        .backend(backend)
        .opt_level(opt)
        .realize(&[input.dims()[0].extent, input.dims()[1].extent])
        .expect("valid schedule must run")
}

fn eval_with(e: &Expr, a: i64, b: i64) -> i64 {
    let ctx = Context::new(ThreadPool::serial(), false);
    let mut frame = Frame::default();
    frame.env.push("a", Value::int(a));
    frame.env.push("b", Value::int(b));
    eval_expr(e, &frame, &ctx)
        .expect("closed integer expression evaluates")
        .as_int()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// simplify(e) evaluates to the same value as e for every assignment.
    #[test]
    fn simplification_preserves_value(e in arb_expr(), a in -10i64..10, b in -10i64..10) {
        let simplified = simplify(&e);
        prop_assert_eq!(eval_with(&e, a, b), eval_with(&simplified, a, b));
    }

    /// Interval analysis brackets the true value of the expression whenever
    /// the variables stay inside their declared ranges.
    #[test]
    fn interval_analysis_is_sound(
        e in arb_expr(),
        a in -5i64..5,
        b in -5i64..5,
    ) {
        let mut scope = Scope::new();
        scope.push("a", Interval::new(Expr::int(-5), Expr::int(5)));
        scope.push("b", Interval::new(Expr::int(-5), Expr::int(5)));
        let bounds = bounds_of_expr_in_scope(&e, &scope);
        let value = eval_with(&e, a, b);
        if let Some(min) = &bounds.min {
            let min = min.as_const_int().expect("bounds over constant ranges fold to constants");
            prop_assert!(value >= min, "value {value} below inferred min {min} for {e}");
        }
        if let Some(max) = &bounds.max {
            let max = max.as_const_int().expect("bounds over constant ranges fold to constants");
            prop_assert!(value <= max, "value {value} above inferred max {max} for {e}");
        }
    }
}

// A random-schedule variant of the "schedules never change results"
// guarantee: random (but valid) combinations of split factors, loop kinds
// and fusion levels applied to the blur pipeline always reproduce the
// reference output. This is the same check the autotuner relies on.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn random_schedules_preserve_blur_results(
        split_x in prop_oneof![Just(4i64), Just(8), Just(16), Just(32)],
        split_y in prop_oneof![Just(4i64), Just(8), Just(16)],
        parallel_outer in any::<bool>(),
        vectorize_inner in any::<bool>(),
        fuse_choice in 0u8..3,
    ) {
        let input = make_input(72, 56);
        let expected = reference(&input);

        let app = BlurApp::new();
        app.out.tile_dims("x", "y", "xo", "yo", "xi", "yi", split_x, split_y);
        if parallel_outer {
            app.out.parallelize("yo");
        }
        if vectorize_inner && split_x >= 8 {
            app.out.split_dim("xi", "xio", "xii", 4).vectorize_dim("xii");
        }
        match fuse_choice {
            0 => { app.blurx.compute_root(); }
            1 => { app.blurx.compute_at(&app.out, "xo"); }
            _ => { app.blurx.compute_inline(); }
        }

        let module = halide::lower(&app.pipeline()).expect("valid schedule must lower");
        let result = realize(&module, &app, &input, Backend::Compiled, OptLevel::Default);
        prop_assert!(result.output.max_abs_diff(&expected) < 1e-4);
    }

    /// Predicated-tail schedules — splits whose factor does not divide the
    /// extent, with a guard_with_if or predicate tail and a vectorized
    /// inner — produce bit-identical results on the interpreter and the
    /// compiled machine (with and without the optimizer), and match the
    /// scalar reference. The masked loads/stores a predicate tail emits
    /// must not read or write a single lane differently between the engines.
    #[test]
    fn predicated_tail_schedules_agree_across_engines(
        width in 33i64..97,
        height in 21i64..60,
        factor in prop_oneof![Just(8i64), Just(16), Just(32)],
        tail_pick in any::<bool>(),
        parallel_rows in any::<bool>(),
    ) {
        use halide::TailStrategy;

        let tail = if tail_pick { TailStrategy::Predicate } else { TailStrategy::GuardWithIf };
        let input = make_input(width, height);
        let expected = reference(&input);

        let app = BlurApp::new();
        app.blurx.compute_root();
        app.out
            .split_dim_tail("x", "xo", "xi", factor, tail)
            .vectorize_dim("xi");
        if parallel_rows {
            app.out.parallelize("y");
        }

        let module = halide::lower(&app.pipeline()).expect("valid schedule must lower");
        let interp = realize(&module, &app, &input, Backend::Interp, OptLevel::Default);
        prop_assert!(interp.output.max_abs_diff(&expected) < 1e-4);
        let a = interp.output.to_f64_vec();
        for opt in [OptLevel::None, OptLevel::Default] {
            let compiled = realize(&module, &app, &input, Backend::Compiled, opt);
            let b = compiled.output.to_f64_vec();
            prop_assert_eq!(a.len(), b.len());
            for (i, (x, y)) in a.iter().zip(&b).enumerate() {
                prop_assert!(
                    x.to_bits() == y.to_bits(),
                    "lane {} diverges at {:?}: interp {} vs compiled {}", i, opt, x, y
                );
            }
            // A non-dividing factor with a predicate tail must actually take
            // the masked path; both engines count the same masked ops.
            if tail == TailStrategy::Predicate && width % factor != 0 {
                prop_assert!(compiled.counters.masked_stores > 0);
                prop_assert_eq!(interp.counters.masked_stores, compiled.counters.masked_stores);
                prop_assert_eq!(interp.counters.masked_loads, compiled.counters.masked_loads);
            }
        }
    }
}

// The compiled engine's vector memory paths rest on the bulk Buffer
// accessors (gather, scatter, strided, clamped-gather) producing exactly
// what a per-lane loop over the single-element accessors produces — on
// arbitrary indices, strides, and element types. These properties are that
// licence, exercised on randomly derived index vectors.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bulk_gather_scatter_and_strided_agree_with_per_lane_loops(
        seed in 0u64..u64::MAX,
        lanes in 1usize..12,
        base in -4i64..36,
        stride in -5i64..6,
        lo in -4i64..20,
        hi in -4i64..40,
    ) {
        use halide::ir::ScalarType;
        use halide::runtime::Buffer;

        let len = 32usize;
        // Alternate element kinds off the seed (the shim's tuple strategies
        // stop at six parameters).
        let ty = if seed % 2 == 0 { ScalarType::Float(32) } else { ScalarType::Int(32) };
        let b = Buffer::with_extents(ty, &[len as i64]);
        for i in 0..len {
            b.set_flat_f64(i, (i as f64) * 1.25 - 7.0);
        }

        // Random (possibly out-of-range) indices from a splitmix-style hash.
        let mut state = seed;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as i64 % 40) - 4 // in [-4, 36): some lanes OOB
        };
        let idx: Vec<i64> = (0..lanes).map(|_| next()).collect();

        // Gather: agrees with per-lane reads, or reports the first OOB lane.
        match b.gather_flat_f64(&idx) {
            Ok(v) => {
                for (k, &i) in idx.iter().enumerate() {
                    prop_assert!((0..len as i64).contains(&i));
                    prop_assert_eq!(v[k], b.get_flat_f64(i as usize));
                }
            }
            Err(bad) => {
                let first = idx.iter().copied().find(|i| !(0..len as i64).contains(i));
                prop_assert_eq!(Some(bad), first);
            }
        }

        // Clamped gather: agrees with clamp-then-read per lane.
        match b.gather_flat_f64_clamped(&idx, lo, hi) {
            Ok(v) => {
                for (k, &i) in idx.iter().enumerate() {
                    let c = i.min(hi).max(lo);
                    prop_assert!((0..len as i64).contains(&c));
                    prop_assert_eq!(v[k], b.get_flat_f64(c as usize));
                }
            }
            Err(bad) => {
                let first = idx
                    .iter()
                    .map(|i| (*i).min(hi).max(lo))
                    .find(|c| !(0..len as i64).contains(c));
                prop_assert_eq!(Some(bad), first);
            }
        }

        // Strided read: agrees with per-lane reads at base + stride * k.
        match b.read_flat_strided_f64s(base, stride, lanes) {
            Ok(v) => {
                for (k, x) in v.iter().enumerate() {
                    prop_assert_eq!(*x, b.get_flat_f64((base + stride * k as i64) as usize));
                }
            }
            Err(bad) => {
                let first = (0..lanes)
                    .map(|k| base + stride * k as i64)
                    .find(|i| !(0..len as i64).contains(i));
                prop_assert_eq!(Some(bad), first);
            }
        }

        // Scatter: agrees element for element with a per-lane store loop
        // (when all indices are in range — the in-range projection).
        let in_range: Vec<i64> = idx.iter().map(|i| i.rem_euclid(len as i64)).collect();
        let vals: Vec<f64> = (0..lanes).map(|k| k as f64 * 0.5 - 1.0).collect();
        let bulk = Buffer::with_extents(ty, &[len as i64]);
        let lane_by_lane = Buffer::with_extents(ty, &[len as i64]);
        bulk.scatter_flat_f64s(&in_range, &vals).expect("all indices in range");
        for (&i, &v) in in_range.iter().zip(&vals) {
            lane_by_lane.set_flat_f64(i as usize, v);
        }
        prop_assert_eq!(bulk.to_f64_vec(), lane_by_lane.to_f64_vec());

        // Strided write, where the whole run fits.
        if stride != 0 {
            let last = base + stride * (lanes as i64 - 1);
            if (0..len as i64).contains(&base) && (0..len as i64).contains(&last) {
                let bulk = Buffer::with_extents(ty, &[len as i64]);
                let lane_by_lane = Buffer::with_extents(ty, &[len as i64]);
                bulk.write_flat_strided_f64s(base, stride, &vals).expect("run fits");
                for (k, &v) in vals.iter().enumerate() {
                    lane_by_lane.set_flat_f64((base + stride * k as i64) as usize, v);
                }
                prop_assert_eq!(bulk.to_f64_vec(), lane_by_lane.to_f64_vec());
            }
        }
    }
}
