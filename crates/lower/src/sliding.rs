//! Sliding window optimization and storage folding (Sec. 4.3).
//!
//! When a function's storage lives at a coarser loop level than its
//! computation, with a serial loop in between, consecutive iterations of that
//! loop can reuse values computed by earlier iterations:
//!
//! * the **sliding window** pass shrinks the region computed per iteration to
//!   exclude everything already computed (trading parallelism of that loop
//!   for the elimination of redundant work);
//! * the **storage folding** pass shrinks the allocation itself when each
//!   iteration only touches a bounded, monotonically advancing window of it
//!   (e.g. keeping just 3 scanlines of `blurx` live instead of the whole
//!   image).
//!
//! Both optimizations pattern-match on how bounds *move* with the serial
//! loop variable. Since injection binds bounds to `<func>.<dim>.min` /
//! `<func>.<dim>.extent` names, a produce loop's min is usually just a
//! variable; the pass therefore carries an environment of the visible let
//! bindings and resolves loop bounds through it before testing
//! monotonicity. Only the loops it actually rewrites get concrete
//! expressions back — everything else keeps the compact name form.

use std::collections::BTreeMap;

use halide_ir::{
    simplify, substitute, CallType, Expr, ExprNode, ForKind, IrMutator, LetResolver, Range, Stmt,
    StmtNode,
};

use crate::bounds::region_required;
use crate::inject::FuncDef;

/// The largest expression (in nodes) worth resolving through the let
/// bindings: resolution beyond this cannot expose the small
/// name-plus-offset patterns this pass matches on, and an uncapped
/// transitive resolution would blow up on deep pipelines.
const LET_RESOLVE_BUDGET: usize = 256;

/// Statistics describing what the pass did — used by tests and by the
/// ablation benchmarks.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SlidingReport {
    /// Functions whose computed region was shrunk by the sliding window pass.
    pub slid: Vec<String>,
    /// Functions whose storage was folded, with the fold factor per folded
    /// dimension index.
    pub folded: Vec<(String, usize, i64)>,
}

/// True if `stmt` directly contains (not nested under another `For`) the
/// produce marker of `func`.
fn directly_contains_produce(stmt: &Stmt, func: &str) -> bool {
    match stmt.node() {
        StmtNode::Producer {
            name,
            is_produce,
            body,
        } => (*is_produce && name == func) || directly_contains_produce(body, func),
        StmtNode::Block { stmts } => stmts.iter().any(|s| directly_contains_produce(s, func)),
        StmtNode::LetStmt { body, .. }
        | StmtNode::Realize { body, .. }
        | StmtNode::Allocate { body, .. } => directly_contains_produce(body, func),
        StmtNode::IfThenElse {
            then_case,
            else_case,
            ..
        } => {
            directly_contains_produce(then_case, func)
                || else_case
                    .as_ref()
                    .map(|e| directly_contains_produce(e, func))
                    .unwrap_or(false)
        }
        _ => false,
    }
}

/// `Some(delta)` if `expr(v) - expr(v-1)` simplifies to a non-negative
/// constant, i.e. the expression is monotonically non-decreasing in `v` with
/// a known step.
fn monotonic_step(expr: &Expr, v: &str) -> Option<i64> {
    let prev = substitute(expr, v, &(Expr::var_i32(v) - 1));
    let delta = simplify(&(expr.clone() - prev));
    match delta.as_const_int() {
        Some(d) if d >= 0 => Some(d),
        _ => None,
    }
}

struct ProduceLoopRewriter<'a> {
    func: &'a str,
    serial_var: &'a str,
    serial_min: Expr,
    /// Let bindings visible at the current walk position, seeded with the
    /// bindings enclosing the realization being optimized. Loop bounds are
    /// resolved through it so a min that is just `<func>.<dim>.min` still
    /// reveals its dependence on the serial loop variable.
    lets: LetResolver,
    inside_produce: bool,
    rewrote: bool,
}

impl IrMutator for ProduceLoopRewriter<'_> {
    fn mutate_stmt(&mut self, s: &Stmt) -> Stmt {
        match s.node() {
            StmtNode::LetStmt { name, value, body } => {
                let saved = self.lets.enter(name, value);
                let nb = self.mutate_stmt(body);
                self.lets.exit(name, saved);
                if nb == *body {
                    s.clone()
                } else {
                    Stmt::let_stmt(name.clone(), value.clone(), nb)
                }
            }
            StmtNode::Producer {
                name,
                is_produce,
                body,
            } if *is_produce && name == self.func => {
                let was = self.inside_produce;
                self.inside_produce = true;
                let nb = self.mutate_stmt(body);
                self.inside_produce = was;
                Stmt::produce(name.clone(), nb)
            }
            StmtNode::For {
                name,
                min,
                extent,
                kind,
                body,
            } if self.inside_produce
                && !self.rewrote
                && name.starts_with(&format!("{}.", self.func)) =>
            {
                let rmin = self.lets.resolve(min);
                let rmax = simplify(&(rmin.clone() + self.lets.resolve(extent) - 1));
                let depends = halide_ir::expr_uses_var(&rmin, self.serial_var);
                if depends {
                    if let (Some(_), Some(_)) = (
                        monotonic_step(&rmin, self.serial_var),
                        monotonic_step(&rmax, self.serial_var),
                    ) {
                        self.rewrote = true;
                        let prev_max = substitute(
                            &rmax,
                            self.serial_var,
                            &(Expr::var_i32(self.serial_var) - 1),
                        );
                        let is_first =
                            Expr::le(Expr::var_i32(self.serial_var), self.serial_min.clone());
                        let new_min = Expr::select(
                            is_first,
                            rmin.clone(),
                            Expr::max(rmin.clone(), prev_max + 1),
                        );
                        let new_extent = simplify(&(rmax - new_min.clone() + 1));
                        return Stmt::for_loop(
                            name.clone(),
                            simplify(&new_min),
                            new_extent,
                            *kind,
                            body.clone(),
                        );
                    }
                }
                halide_ir::mutate_stmt_children(self, s)
            }
            _ => halide_ir::mutate_stmt_children(self, s),
        }
    }
}

struct FoldIndexRewriter<'a> {
    func: &'a str,
    dim: usize,
    factor: i64,
}

impl IrMutator for FoldIndexRewriter<'_> {
    fn mutate_expr(&mut self, e: &Expr) -> Expr {
        let e = halide_ir::mutate_expr_children(self, e);
        if let ExprNode::Call {
            ty,
            name,
            call_type: CallType::Halide,
            args,
        } = e.node()
        {
            if name == self.func {
                let mut args = args.clone();
                args[self.dim] = args[self.dim].clone() % Expr::int(self.factor as i32);
                return Expr::call(*ty, name.clone(), CallType::Halide, args);
            }
        }
        e
    }

    fn mutate_stmt(&mut self, s: &Stmt) -> Stmt {
        let s = halide_ir::mutate_stmt_children(self, s);
        if let StmtNode::Provide { name, value, args } = s.node() {
            if name == self.func {
                let mut args = args.clone();
                args[self.dim] = args[self.dim].clone() % Expr::int(self.factor as i32);
                return Stmt::provide(name.clone(), value.clone(), args);
            }
        }
        s
    }
}

struct SlidingPass<'a> {
    env: &'a BTreeMap<String, FuncDef>,
    enable_sliding: bool,
    enable_folding: bool,
    /// Let bindings enclosing the current walk position — in particular the
    /// `<func>.<dim>.min/.extent` bindings wrapping each `Realize`.
    lets: LetResolver,
    report: SlidingReport,
}

impl SlidingPass<'_> {
    /// Applies sliding window + storage folding inside one realization whose
    /// produce sits inside an intervening serial loop.
    fn optimize_realize(
        &mut self,
        func: &FuncDef,
        ty: halide_ir::Type,
        bounds: &[Range],
        body: &Stmt,
    ) -> Stmt {
        // Find the serial loop directly containing the produce of this func.
        // Every loop *between* the storage level and that loop must itself be
        // serial: both optimizations assume the iterations covering the
        // shared allocation run in order, one at a time. A parallel loop in
        // between hands each thread the same (slid-into or folded) storage —
        // a data race — so the walk refuses to descend through any
        // non-serial loop.
        fn find_serial_loop(s: &Stmt, func: &str) -> Option<(String, Expr)> {
            match s.node() {
                StmtNode::For {
                    name,
                    min,
                    kind,
                    body,
                    ..
                } => {
                    if *kind != ForKind::Serial {
                        return None;
                    }
                    if directly_contains_produce(body, func) {
                        Some((name.clone(), min.clone()))
                    } else {
                        find_serial_loop(body, func)
                    }
                }
                StmtNode::Block { stmts } => stmts.iter().find_map(|s| find_serial_loop(s, func)),
                StmtNode::LetStmt { body, .. }
                | StmtNode::Producer { body, .. }
                | StmtNode::Realize { body, .. }
                | StmtNode::Allocate { body, .. } => find_serial_loop(body, func),
                StmtNode::IfThenElse {
                    then_case,
                    else_case,
                    ..
                } => find_serial_loop(then_case, func)
                    .or_else(|| else_case.as_ref().and_then(|e| find_serial_loop(e, func))),
                _ => None,
            }
        }

        let Some((serial_var, serial_min)) = find_serial_loop(body, &func.name) else {
            return Stmt::realize(func.name.clone(), ty, bounds.to_vec(), body.clone());
        };

        // The per-iteration footprint of the function along each dimension,
        // with the serial loop variable kept symbolic: the basis for both
        // folding and (implicitly) the legality of sliding.
        let loop_body = {
            // Extract the body of the serial loop for footprint analysis.
            fn body_of(s: &Stmt, target: &str) -> Option<Stmt> {
                match s.node() {
                    StmtNode::For { name, body, .. } if name == target => Some(body.clone()),
                    StmtNode::For { body, .. }
                    | StmtNode::LetStmt { body, .. }
                    | StmtNode::Producer { body, .. }
                    | StmtNode::Realize { body, .. }
                    | StmtNode::Allocate { body, .. } => body_of(body, target),
                    StmtNode::Block { stmts } => stmts.iter().find_map(|s| body_of(s, target)),
                    StmtNode::IfThenElse {
                        then_case,
                        else_case,
                        ..
                    } => body_of(then_case, target)
                        .or_else(|| else_case.as_ref().and_then(|e| body_of(e, target))),
                    _ => None,
                }
            }
            body_of(body, &serial_var)
        };

        let mut new_body = body.clone();

        if self.enable_sliding {
            let mut rewriter = ProduceLoopRewriter {
                func: &func.name,
                serial_var: &serial_var,
                serial_min: serial_min.clone(),
                lets: self.lets.clone(),
                inside_produce: false,
                rewrote: false,
            };
            new_body = rewriter.mutate_stmt(&new_body);
            if rewriter.rewrote {
                self.report.slid.push(func.name.clone());
            }
        }

        let mut new_bounds = bounds.to_vec();
        if self.enable_folding {
            if let Some(lb) = loop_body {
                // Everything one iteration reads *or writes*: the fold must
                // hold the produce nest's whole output, not just what the
                // consumers read back.
                let footprint = region_required(&lb, &func.name, func.args.len());
                for (d, interval) in footprint.dims.iter().enumerate() {
                    let per_iter_extent = interval.extent().and_then(|e| e.as_const_int());
                    // The realize extent is usually a `<func>.<dim>.extent`
                    // name; resolve it through the enclosing lets so the
                    // shrink check still sees constants.
                    let realize_extent = self.lets.resolve(&bounds[d].extent).as_const_int();
                    let Some(c) = per_iter_extent else { continue };
                    if c <= 0 {
                        continue;
                    }
                    // Only fold if it actually shrinks the allocation (or the
                    // allocation size is unknown, in which case folding bounds it).
                    if let Some(re) = realize_extent {
                        if re <= c {
                            continue;
                        }
                    }
                    // The window must march monotonically with the serial loop.
                    let Some(min_expr) = &interval.min else {
                        continue;
                    };
                    if monotonic_step(min_expr, &serial_var).is_none() {
                        continue;
                    }
                    new_body = FoldIndexRewriter {
                        func: &func.name,
                        dim: d,
                        factor: c,
                    }
                    .mutate_stmt(&new_body);
                    new_bounds[d] = Range::new(Expr::int(0), Expr::int(c as i32));
                    self.report.folded.push((func.name.clone(), d, c));
                }
            }
        }

        Stmt::realize(func.name.clone(), ty, new_bounds, new_body)
    }
}

impl IrMutator for SlidingPass<'_> {
    fn mutate_stmt(&mut self, s: &Stmt) -> Stmt {
        match s.node() {
            StmtNode::LetStmt { name, value, body } => {
                let saved = self.lets.enter(name, value);
                let nb = self.mutate_stmt(body);
                self.lets.exit(name, saved);
                if nb == *body {
                    s.clone()
                } else {
                    Stmt::let_stmt(name.clone(), value.clone(), nb)
                }
            }
            StmtNode::Realize {
                name,
                ty,
                bounds,
                body,
            } => {
                let body = self.mutate_stmt(body); // handle nested realizations first
                if let Some(def) = self.env.get(name) {
                    let store_differs = def.schedule.store_level != def.schedule.compute_level;
                    if store_differs {
                        return self.optimize_realize(def, *ty, bounds, &body);
                    }
                }
                Stmt::realize(name.clone(), *ty, bounds.clone(), body)
            }
            _ => halide_ir::mutate_stmt_children(self, s),
        }
    }
}

/// Runs sliding window and storage folding over a lowered (pre-flattening)
/// statement. Either optimization can be disabled for ablation studies.
pub fn sliding_and_folding(
    stmt: &Stmt,
    env: &BTreeMap<String, FuncDef>,
    enable_sliding: bool,
    enable_folding: bool,
) -> (Stmt, SlidingReport) {
    let mut pass = SlidingPass {
        env,
        enable_sliding,
        enable_folding,
        lets: LetResolver::new(LET_RESOLVE_BUDGET),
        report: SlidingReport::default(),
    };
    let out = pass.mutate_stmt(stmt);
    (out, pass.report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inject::{build_pipeline_stmt, snapshot_pipeline};
    use halide_ir::Type;
    use halide_lang::{Func, ImageParam, Pipeline, Var};

    fn sliding_blur(prefix: &str) -> (Pipeline, String, String) {
        let input = ImageParam::new(format!("{prefix}_in"), Type::f32(), 2);
        let (x, y) = (Var::new("x"), Var::new("y"));
        let blurx = Func::new(format!("{prefix}_blurx"));
        blurx.define(
            &[x.clone(), y.clone()],
            input.at_clamped(vec![x.expr() - 1, y.expr()])
                + input.at_clamped(vec![x.expr(), y.expr()])
                + input.at_clamped(vec![x.expr() + 1, y.expr()]),
        );
        let out = Func::new(format!("{prefix}_out"));
        out.define(
            &[x.clone(), y.clone()],
            blurx.at(vec![x.expr(), y.expr() - 1])
                + blurx.at(vec![x.expr(), y.expr()])
                + blurx.at(vec![x.expr(), y.expr() + 1]),
        );
        {
            let b = &blurx;
            b.compute_at(&out, "y");
            b.store_root();
        }
        let bn = blurx.name();
        let on = out.name();
        (Pipeline::new(&out), bn, on)
    }

    #[test]
    fn sliding_window_shrinks_computation() {
        let (p, blurx, out) = sliding_blur("slide_basic");
        let env = snapshot_pipeline(&p);
        let order = p.realization_order();
        let stmt = build_pipeline_stmt(&env, &order, &out).unwrap();
        let (optimized, report) = sliding_and_folding(&stmt, &env, true, false);
        assert_eq!(report.slid, vec![blurx.clone()]);
        let text = optimized.to_string();
        // The produce loop min now uses a select on the first iteration and a
        // max against the previous iteration's coverage.
        assert!(text.contains("select("));
        assert!(text.contains("max("));
    }

    #[test]
    fn storage_folding_shrinks_allocation() {
        let (p, blurx, out) = sliding_blur("slide_fold");
        let env = snapshot_pipeline(&p);
        let order = p.realization_order();
        let stmt = build_pipeline_stmt(&env, &order, &out).unwrap();
        let (optimized, report) = sliding_and_folding(&stmt, &env, true, true);
        // Folded along y by the 3-row stencil window.
        assert!(report
            .folded
            .iter()
            .any(|(f, d, c)| f == &blurx && *d == 1 && *c == 3));
        let text = optimized.to_string();
        assert!(text.contains("% 3"));
        let _ = out;
    }

    #[test]
    fn no_optimization_when_store_equals_compute() {
        let input = ImageParam::new("slide_none_in", Type::f32(), 2);
        let (x, y) = (Var::new("x"), Var::new("y"));
        let f = Func::new("slide_none_f");
        f.define(
            &[x.clone(), y.clone()],
            input.at_clamped(vec![x.expr(), y.expr()]),
        );
        let g = Func::new("slide_none_g");
        g.define(
            &[x.clone(), y.clone()],
            f.at(vec![x.expr(), y.expr() - 1]) + f.at(vec![x.expr(), y.expr() + 1]),
        );
        // default: f computed and stored at root — nothing to slide or fold
        let p = Pipeline::new(&g);
        let env = snapshot_pipeline(&p);
        let order = p.realization_order();
        let stmt = build_pipeline_stmt(&env, &order, &g.name()).unwrap();
        let (_, report) = sliding_and_folding(&stmt, &env, true, true);
        assert!(report.slid.is_empty());
        assert!(report.folded.is_empty());
    }

    #[test]
    fn no_optimization_across_a_parallel_loop() {
        // store_root + compute_at inside a *parallel* consumer loop: folding
        // the storage to one scanline (or sliding into it) would make every
        // thread share the same window — a data race the fuzzer caught
        // (seeds 918 and 1050). The pass must leave such realizations alone.
        let input = ImageParam::new("slide_par_in", Type::f32(), 2);
        let (x, y) = (Var::new("x"), Var::new("y"));
        let blurx = Func::new("slide_par_blurx");
        blurx.define(
            &[x.clone(), y.clone()],
            input.at_clamped(vec![x.expr(), y.expr() - 1])
                + input.at_clamped(vec![x.expr(), y.expr() + 1]),
        );
        let outf = Func::new("slide_par_out");
        outf.define(
            &[x.clone(), y.clone()],
            blurx.at(vec![x.expr(), y.expr() - 1]) + blurx.at(vec![x.expr(), y.expr() + 1]),
        );
        // Compute sits inside the serial x loop, one level *below* the
        // parallel y loop; storage is at root, so the parallel loop lies
        // between storage and compute.
        blurx.compute_at(&outf, "x");
        blurx.store_root();
        outf.parallelize("y");
        let out = outf.name();
        let p = Pipeline::new(&outf);
        let env = snapshot_pipeline(&p);
        let order = p.realization_order();
        let stmt = build_pipeline_stmt(&env, &order, &out).unwrap();
        let (optimized, report) = sliding_and_folding(&stmt, &env, true, true);
        assert!(report.slid.is_empty(), "slid across a parallel loop");
        assert!(report.folded.is_empty(), "folded across a parallel loop");
        assert_eq!(optimized.to_string(), stmt.to_string());
    }

    /// The fold factors `p` gets when computed per pixel of `c(x, y) =
    /// sum(w * p(x + dx, y + dy))` and stored at root, with `split` applied
    /// to `p`.
    fn folds_of(
        prefix: &str,
        taps: &[(i32, i32, f32)],
        split: impl Fn(&Func),
    ) -> Vec<(usize, i64)> {
        let input = ImageParam::new(format!("{prefix}_in"), Type::f32(), 2);
        let (x, y) = (Var::new("x"), Var::new("y"));
        let p = Func::new(format!("{prefix}_p"));
        p.define(
            &[x.clone(), y.clone()],
            input.at_clamped(vec![x.expr(), y.expr()]) + 1.0f32,
        );
        let c = Func::new(format!("{prefix}_c"));
        let read = |&(dx, dy, w): &(i32, i32, f32)| p.at(vec![x.expr() + dx, y.expr() + dy]) * w;
        let sum = taps.iter().map(read).reduce(|a, b| a + b).unwrap();
        c.define(&[x.clone(), y.clone()], sum);
        split(&p);
        p.compute_at(&c, "x").store_root();
        let pipeline = Pipeline::new(&c);
        let env = snapshot_pipeline(&pipeline);
        let order = pipeline.realization_order();
        let stmt = build_pipeline_stmt(&env, &order, &c.name()).unwrap();
        let (_, report) = sliding_and_folding(&stmt, &env, true, true);
        let p = p.name();
        report
            .folded
            .into_iter()
            .filter(|(f, _, _)| *f == p)
            .map(|(_, d, c)| (d, c))
            .collect()
    }

    #[test]
    fn fold_holds_what_the_produce_nest_writes() {
        // The weight-0 tap is simplified out of the reads, but it sized the
        // compute region: each iteration writes two rows of `p` and reads
        // one back. A fold sized from the reads alone wraps the second row
        // onto the first.
        let taps = [(-1, 1, 0.0), (-1, 0, 3.0)];
        assert_eq!(
            folds_of("slide_fold_rows", &taps, |_| {}),
            vec![(0, 1), (1, 2)]
        );
        // A round_up split writes a whole 8-wide tile per output pixel.
        let round_up = |p: &Func| {
            p.split_dim_tail("x", "xo", "xi", 8, halide_schedule::TailStrategy::RoundUp);
        };
        let folds = folds_of("slide_fold_tile", &[(0, 0, 1.0)], round_up);
        assert!(folds.contains(&(0, 8)), "{folds:?}");
    }

    #[test]
    fn monotonic_step_detection() {
        let v = Expr::var_i32("v");
        assert_eq!(monotonic_step(&(v.clone() * 2 + 3), "v"), Some(2));
        assert_eq!(monotonic_step(&Expr::int(7), "v"), Some(0));
        assert_eq!(monotonic_step(&(Expr::int(10) - v.clone()), "v"), None);
        // non-linear dependence is rejected
        assert_eq!(monotonic_step(&(v.clone() * v), "v"), None);
    }

    #[test]
    fn sliding_disabled_is_a_no_op() {
        let (p, _blurx, out) = sliding_blur("slide_disabled");
        let env = snapshot_pipeline(&p);
        let order = p.realization_order();
        let stmt = build_pipeline_stmt(&env, &order, &out).unwrap();
        let (optimized, report) = sliding_and_folding(&stmt, &env, false, false);
        assert!(report.slid.is_empty());
        assert!(report.folded.is_empty());
        assert_eq!(optimized.to_string(), stmt.to_string());
    }
}
