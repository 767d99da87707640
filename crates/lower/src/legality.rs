//! The schedule rules lowering enforces, one test per rule.
//!
//! Lowering is the only judge of whether a schedule is legal: nothing
//! states the rules ahead of time, so each one is pinned here as the typed
//! `LowerError` a schedule that breaks it gets, next to the nearest
//! schedule that lowers.

mod tests {
    use halide_ir::{BinOp, Expr, Type};
    use halide_lang::{Func, ImageParam, Pipeline, RDom, Var};
    use halide_schedule::{Dim, ForKind, LoopLevel, TailStrategy};

    use crate::vectorize::{MAX_UNROLL, MAX_VECTOR_LANES};
    use crate::{lower, LowerError, Module};

    fn xy() -> [Var; 2] {
        [Var::new("x"), Var::new("y")]
    }

    /// `p(x, y) = 2 * in(x, y)`, read point-wise by the output
    /// `out(x, y) = p(x, y) + 1`.
    fn two_stage(prefix: &str) -> (Func, Func) {
        let input = ImageParam::new(format!("{prefix}_in"), Type::f32(), 2);
        let [x, y] = xy();
        let p = Func::new(format!("{prefix}_p"));
        p.define(
            &[x.clone(), y.clone()],
            input.at_clamped(vec![x.expr(), y.expr()]) * 2.0f32,
        );
        let out = Func::new(format!("{prefix}_out"));
        out.define(
            &[x.clone(), y.clone()],
            p.at(vec![x.expr(), y.expr()]) + 1.0f32,
        );
        (p, out)
    }

    fn lowers(out: &Func) -> Module {
        lower(&Pipeline::new(out)).unwrap_or_else(|e| panic!("schedule must lower: {e}"))
    }

    /// Lowering rejects the schedule with an error mentioning `needle`.
    fn rejects(out: &Func, needle: &str) -> LowerError {
        let err = lower(&Pipeline::new(out)).expect_err("lowering must reject the schedule");
        assert!(err.to_string().contains(needle), "{err}");
        err
    }

    const NOT_CONSTANT: &str = "must have a constant extent";
    const NOT_ENCLOSED: &str = "does not enclose all of its consumers";

    #[test]
    fn default_schedules_are_legal() {
        let (_, out) = two_stage("leg_default");
        lowers(&out);
    }

    #[test]
    fn dim_extents_track_splits() {
        // A split's inner half has the factor as a literal extent, and so
        // does each half of a re-split of it; everything derived from the
        // output's own extent stays a run-time symbol.
        let (_, out) = two_stage("leg_dims_inner");
        out.split_dim("x", "xo", "xi", 8)
            .split_dim("xo", "xoo", "xoi", 2)
            .vectorize_dim("xoi");
        lowers(&out);
        let (_, out) = two_stage("leg_dims_outer");
        out.split_dim("x", "xo", "xi", 8)
            .split_dim("xo", "xoo", "xoi", 2)
            .vectorize_dim("xoo");
        rejects(&out, NOT_CONSTANT);
    }

    #[test]
    fn re_split_inner_dims_stay_constant() {
        let (_, out) = two_stage("leg_resplit");
        out.split_dim("x", "xo", "xi", 8)
            .split_dim("xi", "xio", "xii", 2)
            .vectorize_dim("xio");
        assert!(lowers(&out).pretty().contains("ramp(0, 1, 4)"));
    }

    #[test]
    fn vectorize_known_output_extent_is_still_illegal() {
        // The output's extent is bound when it is realized, so neither the
        // raw dimension nor the outer half of a split of it is constant.
        let (_, out) = two_stage("leg_vec_out");
        out.vectorize_dim("x");
        rejects(&out, NOT_CONSTANT);
        let (_, out) = two_stage("leg_vec_out_outer");
        out.split_dim("x", "xo", "xi", 2).vectorize_dim("xo");
        rejects(&out, NOT_CONSTANT);
    }

    #[test]
    fn split_beyond_known_extent_is_illegal() {
        // A split's inner half is one factor wide: shifting a wider split of
        // it inwards would overrun the tile.
        let (p, out) = two_stage("leg_split_known");
        p.split_dim("x", "xo", "xi", 8)
            .split_dim("xi", "xio", "xii", 16)
            .compute_root();
        let err = rejects(&out, "exceeds its constant extent 8");
        assert_eq!(err.func(), Some(p.name().as_str()));
        assert_eq!(err.dim(), Some("xi"));
        // A producer's own region grows to one factor instead: computed per
        // output pixel, `p` is required one column wide and computes eight.
        let (p, out) = two_stage("leg_split_grown");
        p.split_dim("x", "xo", "xi", 8).compute_at(&out, "x");
        let text = lowers(&out).pretty();
        assert!(
            text.contains(&format!("allocate {}[float32 * 8]", p.name())),
            "{text}"
        );
        // The output's extent is known only when it is realized, so there
        // lowering emits a run-time check instead.
        let (_, out) = two_stage("leg_split_out");
        out.split_dim("x", "xo", "xi", 128);
        assert!(lowers(&out).pretty().contains("must be at least 128 wide"));
    }

    #[test]
    fn tail_strategies_relax_extent_checks() {
        for tail in [
            TailStrategy::GuardWithIf,
            TailStrategy::Predicate,
            TailStrategy::RoundUp,
        ] {
            let (p, out) = two_stage(&format!("leg_tail_{tail}"));
            p.split_dim_tail("x", "xo", "xi", 8, tail)
                .compute_at(&out, "x");
            lowers(&out);
        }
        for tail in [TailStrategy::GuardWithIf, TailStrategy::Predicate] {
            let (_, out) = two_stage(&format!("leg_tail_out_{tail}"));
            out.split_dim_tail("x", "xo", "xi", 128, tail);
            assert!(
                !lowers(&out).pretty().contains("must be at least"),
                "{tail}"
            );
        }
    }

    #[test]
    fn round_up_is_illegal_on_the_output() {
        let (_, out) = two_stage("leg_roundup_out");
        out.split_dim_tail("x", "xo", "xi", 8, TailStrategy::RoundUp);
        let err = rejects(&out, "caller-allocated output buffer");
        assert_eq!(err.dim(), Some("x"));
        // A producer's allocation is padded for it.
        let (p, out) = two_stage("leg_roundup_producer");
        p.split_dim_tail("x", "xo", "xi", 8, TailStrategy::RoundUp)
            .vectorize_dim("xi");
        lowers(&out);
    }

    #[test]
    fn split_beyond_unknown_extent_is_legal() {
        let (p, out) = two_stage("leg_split_unknown");
        p.split_dim("x", "xo", "xi", 128);
        lowers(&out);
    }

    #[test]
    fn vectorize_requires_constant_extent() {
        let (p, out) = two_stage("leg_vec_const");
        p.vectorize_dim("x");
        rejects(&out, NOT_CONSTANT);
        let (p, out) = two_stage("leg_vec_const_split");
        p.split_dim("x", "xo", "xi", 8).vectorize_dim("xi");
        lowers(&out);
    }

    #[test]
    fn vectorize_lane_limit_is_enforced() {
        let (p, out) = two_stage("leg_vec_lanes");
        p.split_dim("x", "xo", "xi", MAX_VECTOR_LANES + 1)
            .vectorize_dim("xi");
        rejects(&out, &format!("outside 1..={MAX_VECTOR_LANES}"));
    }

    #[test]
    fn unroll_requires_constant_extent_in_range() {
        let (p, out) = two_stage("leg_unroll_sym");
        p.unroll_dim("y");
        rejects(&out, NOT_CONSTANT);
        let (p, out) = two_stage("leg_unroll_ok");
        p.split_dim("y", "yo", "yi", 4).unroll_dim("yi");
        lowers(&out);
        let (p, out) = two_stage("leg_unroll_deep");
        p.split_dim("y", "yo", "yi", MAX_UNROLL + 1)
            .unroll_dim("yi");
        rejects(&out, &format!("outside 1..={MAX_UNROLL}"));
    }

    #[test]
    fn two_vectorized_loops_are_illegal() {
        // Each vectorized loop turns the index into a ramp of its own
        // width; the engines would broadcast one against the other.
        let (p, out) = two_stage("leg_two_vec");
        p.split_dim("y", "yo", "yi", 2)
            .vectorize_dim("yi")
            .split_dim("x", "xo", "xi", 4)
            .vectorize_dim("xi");
        let err = rejects(&out, "vectorizes both");
        assert_eq!(err.func(), Some(p.name().as_str()));
        // Also when one of them is a predicated tail's inner loop.
        let (_, out) = two_stage("leg_two_vec_pred");
        out.split_dim_tail("x", "xo", "xi", 4, TailStrategy::Predicate)
            .vectorize_dim("xi")
            .split_dim("y", "yo", "yi", 2)
            .vectorize_dim("yi");
        rejects(&out, "vectorizes both");
    }

    #[test]
    fn compute_at_happy_path_and_violations() {
        let at = |prefix: &str, var: &str| {
            let (p, out) = two_stage(prefix);
            out.split_dim("y", "yo", "yi", 8);
            p.compute_at(&out, var);
            out
        };
        lowers(&at("leg_at_yo", "yo"));
        lowers(&at("leg_at_x", "x"));
        // Split away, or never a dimension.
        rejects(
            &at("leg_at_y", "y"),
            "does not exist in the current loop nest",
        );
        rejects(&at("leg_at_nope", "nope"), "not a dimension");
        // A function cannot be computed inside its own loops.
        let (p, out) = two_stage("leg_at_self");
        let mut s = p.schedule();
        s.compute_level = LoopLevel::at(p.name(), "x");
        s.store_level = s.compute_level.clone();
        p.set_schedule(s);
        let err = rejects(&out, "does not exist in the current loop nest");
        assert_eq!(err.func(), Some(p.name().as_str()));
    }

    #[test]
    fn compute_at_inside_vectorized_loop_is_illegal() {
        let vectorized = |prefix: &str| {
            let (p, out) = two_stage(prefix);
            out.split_dim("x", "xo", "xi", 8).vectorize_dim("xi");
            (p, out)
        };
        let (p, out) = vectorized("leg_at_vec_outer");
        p.compute_at(&out, "xo");
        lowers(&out);
        let (p, out) = vectorized("leg_at_vec");
        p.compute_at(&out, "xi");
        let err = rejects(&out, "inside the vectorized loop \"xi\"");
        assert_eq!(err.func(), Some(p.name().as_str()));
        // Storage there is no better.
        let (p, out) = vectorized("leg_store_vec");
        p.compute_at(&out, "xi").store_at(&out, "xi");
        rejects(&out, "inside the vectorized loop");
        // An unrolled level is a scalar in each copy, and stays legal.
        let (p, out) = two_stage("leg_at_unroll");
        out.split_dim("x", "xo", "xi", 4).unroll_dim("xi");
        p.compute_at(&out, "xi");
        lowers(&out);
    }

    #[test]
    fn compute_at_update_call_sites_are_illegal() {
        // `out` reads `p` only from its update, which loops outside the
        // pure nest.
        let input = ImageParam::new("leg_upd_in", Type::f32(), 2);
        let [x, y] = xy();
        let p = Func::new("leg_upd_p");
        p.define(
            &[x.clone(), y.clone()],
            input.at_clamped(vec![x.expr(), y.expr()]),
        );
        let out = Func::new("leg_upd_out");
        out.define(&[x.clone(), y.clone()], Expr::f32(0.0));
        let r = RDom::over("leg_upd_r", 0, 2);
        out.update(
            vec![x.expr(), y.expr()],
            out.at(vec![x.expr(), y.expr()]) + p.at(vec![x.expr() + r.x().expr(), y.expr()]),
            Some(r),
        );
        p.compute_at(&out, "x");
        rejects(&out, NOT_ENCLOSED);
    }

    /// `p` read by `mid` and by the output, which also reads `mid`.
    fn diamond(prefix: &str) -> (Func, Func, Func) {
        let (p, _) = two_stage(prefix);
        let [x, y] = xy();
        let mid = Func::new(format!("{prefix}_mid"));
        mid.define(
            &[x.clone(), y.clone()],
            p.at(vec![x.expr(), y.expr()]) * 3.0f32,
        );
        let out = Func::new(format!("{prefix}_out2"));
        out.define(
            &[x.clone(), y.clone()],
            p.at(vec![x.expr(), y.expr()]) + mid.at(vec![x.expr(), y.expr()]),
        );
        (p, mid, out)
    }

    #[test]
    fn compute_at_multiple_consumers_is_illegal() {
        let (p, _, out) = diamond("leg_multi_out");
        p.compute_at(&out, "x");
        rejects(&out, NOT_ENCLOSED);
        let (p, mid, out) = diamond("leg_multi_mid");
        p.compute_at(&mid, "x");
        rejects(&out, NOT_ENCLOSED);
    }

    #[test]
    fn inline_consumers_are_transparent() {
        // With `mid` inlined, all of `p`'s call sites are in the output.
        let (p, mid, out) = diamond("leg_transparent");
        mid.compute_inline();
        p.compute_at(&out, "x");
        lowers(&out);
        // ...and `mid` has no loops to compute `p` at.
        let (p, mid, out) = diamond("leg_transparent_mid");
        mid.compute_inline();
        p.compute_at(&mid, "x");
        rejects(&out, "does not exist in the current loop nest");
    }

    #[test]
    fn inline_with_updates_is_illegal() {
        let (p, out) = two_stage("leg_inline_upd");
        let [x, y] = xy();
        p.update(
            vec![x.expr(), y.expr()],
            p.at(vec![x.expr(), y.expr()]) + 1.0f32,
            None,
        );
        p.compute_inline();
        rejects(&out, "cannot be inlined");
    }

    #[test]
    fn output_must_be_root() {
        let (_, out) = two_stage("leg_out_inline");
        out.compute_inline();
        rejects(&out, "cannot be scheduled inline");
        let (p, out) = two_stage("leg_out_at");
        let mut s = out.schedule();
        s.compute_level = LoopLevel::at(p.name(), "x");
        s.store_level = s.compute_level.clone();
        out.set_schedule(s);
        rejects(&out, "must be computed at root");
    }

    #[test]
    fn store_at_must_be_coarser_and_same_consumer() {
        let scheduled = |prefix: &str, compute: &str, store: Option<&str>| {
            let (p, out) = two_stage(prefix);
            out.split_dim("y", "yo", "yi", 8);
            p.compute_at(&out, compute);
            match store {
                Some(var) => p.store_at(&out, var),
                None => p.store_root(),
            };
            (p, out)
        };
        // At the compute level, coarser (the sliding-window shape), root.
        lowers(&scheduled("leg_store_same", "yi", Some("yi")).1);
        lowers(&scheduled("leg_store_coarser", "yi", Some("yo")).1);
        lowers(&scheduled("leg_store_root", "yi", None).1);
        // Finer than the compute level.
        let (_, out) = scheduled("leg_store_finer", "yo", Some("yi"));
        rejects(&out, "does not enclose its compute level");
        // In a loop nest other than the consumer's.
        let (p, out) = scheduled("leg_store_other", "yi", None);
        let mut s = p.schedule();
        s.store_level = LoopLevel::at(p.name(), "x");
        p.set_schedule(s);
        rejects(&out, "does not exist in the current loop nest");
    }

    /// `out(x, y) = 0; out(x, y) += in(x + r.x, y + r.y)` over a 3x2 window
    /// (the fuzzer's reduce), with element type `ty`.
    fn window_sum(prefix: &str, ty: Type) -> Func {
        let input = ImageParam::new(format!("{prefix}_in"), ty, 2);
        let [x, y] = xy();
        let out = Func::new(format!("{prefix}_out"));
        out.define(&[x.clone(), y.clone()], Expr::zero(ty));
        let r = RDom::new(
            format!("{prefix}_r"),
            vec![(Expr::int(0), Expr::int(3)), (Expr::int(0), Expr::int(2))],
        );
        out.update(
            vec![x.expr(), y.expr()],
            out.at(vec![x.expr(), y.expr()])
                + input.at_clamped(vec![x.expr() + r.x().expr(), y.expr() + r.y().expr()]),
            Some(r),
        );
        out
    }

    /// `out(x, y) = in(x, y); out(x, y) += out(max(x - 1, 0), y)`: a scan
    /// along `x`, whose self-reference shifts `x` but not `y`.
    fn scan_x(prefix: &str) -> Func {
        let input = ImageParam::new(format!("{prefix}_in"), Type::f32(), 2);
        let [x, y] = xy();
        let out = Func::new(format!("{prefix}_out"));
        out.define(
            &[x.clone(), y.clone()],
            input.at_clamped(vec![x.expr(), y.expr()]),
        );
        out.update(
            vec![x.expr(), y.expr()],
            out.at(vec![x.expr(), y.expr()])
                + out.at(vec![Expr::max(x.expr() - 1, Expr::int(0)), y.expr()]),
            None,
        );
        out
    }

    #[test]
    fn update_pure_var_must_be_independent_to_vectorize_or_parallelize() {
        // Rule (a): the scan's points along x depend on each other.
        let out = scan_x("leg_upd_scan_vec");
        out.update_stage(0)
            .split_dim("x", "xo", "xi", 4)
            .vectorize_dim("xi");
        let err = rejects(&out, "not independent");
        assert_eq!(err.func(), Some(out.name().as_str()));
        assert_eq!(err.dim(), Some("xi"));
        let out = scan_x("leg_upd_scan_par");
        out.update_stage(0).parallelize("x");
        rejects(&out, "not independent");
        // Along y they are independent: the nearest legal schedule.
        let out = scan_x("leg_upd_scan_y");
        out.update_stage(0)
            .parallelize("y")
            .split_dim("x", "xo", "xi", 4)
            .unroll_dim("xi");
        lowers(&out);
        let out = scan_x("leg_upd_scan_y_vec");
        out.update_stage(0)
            .split_dim_tail("y", "yo", "yi", 4, TailStrategy::Predicate)
            .vectorize_dim("yi");
        lowers(&out);
        let out = window_sum("leg_upd_window_par", Type::f32());
        out.update_stage(0)
            .parallelize("y")
            .split_dim("x", "xo", "xi", 8)
            .vectorize_dim("xi");
        lowers(&out);
    }

    #[test]
    fn update_splits_must_guard_their_tail() {
        // Rule (b): shifting the last tile inwards would add some window
        // sums twice; rounding up writes past the output.
        for tail in [TailStrategy::ShiftInwards, TailStrategy::RoundUp] {
            let out = window_sum(&format!("leg_upd_tail_{tail}"), Type::f32());
            out.update_stage(0).split_dim_tail("x", "xo", "xi", 4, tail);
            let err = rejects(&out, &format!("tail strategy {tail}"));
            assert_eq!(err.dim(), Some("x"));
        }
        for tail in [TailStrategy::GuardWithIf, TailStrategy::Predicate] {
            let out = window_sum(&format!("leg_upd_tail_ok_{tail}"), Type::f32());
            out.update_stage(0)
                .split_dim_tail("x", "xo", "xi", 4, tail)
                .vectorize_dim("xi");
            lowers(&out);
        }
    }

    #[test]
    fn reduction_variables_keep_their_order_and_stay_serial() {
        // Rule (c): reordering two RVars changes the reduction's order.
        let out = window_sum("leg_upd_rv_reorder", Type::f32());
        let r = format!("{}_r", out.name().trim_end_matches("_out"));
        let (rx, ry) = (format!("{r}.x"), format!("{r}.y"));
        out.update_stage(0).reorder_dims(&[&rx, &ry]);
        let err = rejects(&out, "reorders");
        assert_eq!(err.dim(), Some(rx.as_str()));
        // Vectorizing or parallelizing one runs it out of order.
        let out = window_sum("leg_upd_rv_vec", Type::f32());
        let r = format!("{}_r", out.name().trim_end_matches("_out"));
        out.update_stage(0)
            .split_dim(&format!("{r}.x"), "rxo", "rxi", 2)
            .vectorize_dim("rxi");
        let err = rejects(&out, "reduction variable");
        assert_eq!(err.dim(), Some("rxi"));
        let out = window_sum("leg_upd_rv_par", Type::f32());
        let r = format!("{}_r", out.name().trim_end_matches("_out"));
        out.update_stage(0).parallelize(&format!("{r}.y"));
        rejects(&out, "reduction variable");
        // Splitting (its tail guarded) and unrolling keep the order, and an
        // independent pure loop may move inside the reduction loops.
        let out = window_sum("leg_upd_rv_ok", Type::f32());
        let r = format!("{}_r", out.name().trim_end_matches("_out"));
        let (rx, ry) = (format!("{r}.x"), format!("{r}.y"));
        out.update_stage(0)
            .split_dim(&rx, "rxo", "rxi", 2)
            .unroll_dim("rxi")
            .reorder_dims(&[&ry, "rxo", "rxi", "x"]);
        let text = lowers(&out).pretty();
        assert!(text.contains("rxo*2) + 1)"), "{text}");
    }

    /// `out(x) = 0; out(x) = out(x) op e(r.x)` over a 10-point domain.
    fn reduce_1d(prefix: &str, ty: Type, update: impl Fn(Expr, Expr) -> Expr) -> Func {
        let input = ImageParam::new(format!("{prefix}_in"), ty, 1);
        let x = Var::new("x");
        let out = Func::new(format!("{prefix}_out"));
        out.define(&[x.clone()], Expr::zero(ty));
        let r = RDom::over(format!("{prefix}_r"), 0, 10);
        let e = input.at_clamped(vec![x.expr() + r.x().expr()]);
        out.update(vec![x.expr()], update(out.at(vec![x.expr()]), e), Some(r));
        out
    }

    #[test]
    fn rfactor_reassociates_only_integer_sums_mins_and_maxes() {
        // Rule (d): a float sum changes bits when regrouped.
        let out = reduce_1d("leg_rf_float", Type::f32(), |f, e| f + e);
        let rx = format!("{}_r.x", out.name().trim_end_matches("_out"));
        out.update_stage(0).rfactor(&rx, "u");
        let err = rejects(&out, "float");
        assert_eq!(err.func(), Some(out.name().as_str()));
        assert_eq!(err.dim(), Some(rx.as_str()));
        // `f(x) = f(x) * 2 + e` is not `f(x) op e`.
        let out = reduce_1d("leg_rf_affine", Type::i32(), |f, e| f * 2 + e);
        let rx = format!("{}_r.x", out.name().trim_end_matches("_out"));
        out.update_stage(0).rfactor(&rx, "u");
        rejects(&out, "only an update f(a) = f(a) op e");
        // The integer sum, min and max factor, split or not.
        for (i, op) in [BinOp::Add, BinOp::Min, BinOp::Max].into_iter().enumerate() {
            let out = reduce_1d(&format!("leg_rf_int{i}"), Type::i32(), |f, e| match op {
                BinOp::Add => f + e,
                BinOp::Min => Expr::min(f, e),
                _ => Expr::max(f, e),
            });
            let rx = format!("{}_r.x", out.name().trim_end_matches("_out"));
            let stage = out.update_stage(0);
            stage.split_dim(&rx, "rxo", "rxi", 4);
            let intm = stage.rfactor("rxi", "u");
            intm.compute_root().update_stage(0).vectorize_dim("u");
            let text = lowers(&out).pretty();
            assert!(text.contains(&format!("produce {}", intm.name())), "{text}");
        }
    }

    #[test]
    fn hand_built_schedule_with_unbound_dim_is_rejected() {
        let (p, out) = two_stage("leg_ghost");
        let mut s = p.schedule();
        s.dims.push(Dim {
            name: "ghost".to_string(),
            kind: ForKind::Serial,
        });
        p.set_schedule(s);
        let err = rejects(&out, "no bounds");
        assert_eq!(err.dim(), Some("ghost"));
    }
}
