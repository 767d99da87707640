//! Loop synthesis (Sec. 4.1): building the loop nest that produces one
//! function over a required region, according to its schedule's domain order.
//!
//! The region handed to [`build_produce_nest`] is normally *symbolic* — one
//! `<func>.<dim>.min` / `<func>.<dim>.extent` variable pair per dimension
//! (see [`crate::inject::symbolic_region`]) — so the synthesized loops stay
//! compact regardless of how large the inferred bounds expressions are; the
//! concrete values are bound by `LetStmt`s at the realization level. Checks
//! that need the concrete region (e.g. [`validate_splits`]) are therefore
//! separate entry points taking the inferred region directly.

use std::collections::HashMap;

use halide_ir::{Expr, ForKind, Range, Stmt};
use halide_schedule::TailStrategy;

use crate::error::{LowerError, Result};
use crate::inject::FuncDef;

/// The loop-variable name used in lowered code for dimension `dim` of
/// function `func`'s pure definition.
pub fn loop_var(func: &str, dim: &str) -> String {
    format!("{func}.{dim}")
}

/// The loop-variable name for dimension `dim` of update stage `stage`.
pub fn update_loop_var(func: &str, stage: usize, dim: &str) -> String {
    format!("{func}.s{stage}.{dim}")
}

/// Builds the statement that computes `func` over `region` (one `Range` per
/// pure argument, in argument order), honouring the schedule's splits, loop
/// order, and loop kinds. Update definitions are appended after the pure
/// initialization, looping over their reduction domains in lexicographic
/// order (first dimension innermost).
///
/// Split dimensions use the shift-inwards tail strategy: the last iteration
/// of the outer loop is shifted back so the traversed region never exceeds
/// the required region (at the cost of recomputing a few values), which keeps
/// stores inside the allocated/required box without per-point guards.
///
/// # Errors
///
/// Fails if the schedule references dimensions that do not exist or if the
/// region does not cover every pure argument.
pub fn build_produce_nest(func: &FuncDef, region: &[Range]) -> Result<Stmt> {
    if region.len() != func.args.len() {
        return Err(LowerError::new(format!(
            "function {} has {} dimensions but the inferred region has {}",
            func.name,
            func.args.len(),
            region.len()
        ))
        .in_func(&func.name));
    }

    // With a symbolic region this only checks split/dimension wiring; with
    // a concrete region it also rejects factors exceeding constant extents.
    validate_splits(func, region)?;

    let pure = build_pure_nest(func, region)?;
    let mut stages = vec![pure];
    for (i, update) in func.updates.iter().enumerate() {
        stages.push(build_update_nest(func, i, update, region)?);
    }
    Ok(Stmt::produce(func.name.clone(), Stmt::block_of(stages)))
}

/// Map from pure argument name to its (min, extent) over the required region.
fn region_map(func: &FuncDef, region: &[Range]) -> HashMap<String, (Expr, Expr)> {
    func.args
        .iter()
        .cloned()
        .zip(region.iter().map(|r| (r.min.clone(), r.extent.clone())))
        .collect()
}

/// Checks every split of `func`'s schedule against the *concrete* inferred
/// region: a split whose factor exceeds a known-constant extent would make
/// the shift-inwards tail strategy traverse more than the required region,
/// so it is rejected here (with the offending function and dimension named)
/// rather than silently over-computing.
///
/// The loop nest itself is built over symbolic bounds names, so this check
/// must run where the concrete region is still at hand — injection calls it
/// right after bounds inference.
///
/// It also rejects a nest with more than one vectorized loop: each turns
/// the index into a ramp of its own width, and the engines would broadcast
/// the narrower ramp against the wider one rather than fail, storing wrong
/// pixels.
///
/// # Errors
///
/// Fails if a split factor exceeds the constant extent of the dimension it
/// splits, if a split references a dimension the function does not have, or
/// if two of the function's loops are vectorized.
pub fn validate_splits(func: &FuncDef, region: &[Range]) -> Result<()> {
    let mut vectorized = func
        .schedule
        .dims
        .iter()
        .filter(|d| d.kind == ForKind::Vectorized);
    if let (Some(a), Some(b)) = (vectorized.next(), vectorized.next()) {
        return Err(LowerError::new(format!(
            "{} vectorizes both {:?} and {:?}; a loop nest may vectorize one loop",
            func.name, a.name, b.name
        ))
        .in_func(&func.name)
        .in_dim(&b.name));
    }
    // Tracks the (constant, when known) extent of every dimension as splits
    // rewrite them, mirroring the bookkeeping in `build_pure_nest`.
    let mut extents: HashMap<String, Option<i64>> = func
        .args
        .iter()
        .cloned()
        .zip(region.iter().map(|r| r.extent.as_const_int()))
        .collect();
    // Dimensions produced by a tail-partitioned split: the loop pair is
    // duplicated into a main and a tail copy, so re-splitting either half
    // has no single loop to act on.
    let mut partitioned: Vec<String> = Vec::new();
    for split in &func.schedule.splits {
        if partitioned.contains(&split.old) {
            return Err(LowerError::new(format!(
                "cannot split {:?} in {}: it comes from a guard_with_if/predicate \
                 split, whose loops are partitioned into a main and a tail copy; \
                 apply the tail strategy to the last split of a dimension instead",
                split.old, func.name
            ))
            .in_func(&func.name)
            .in_dim(&split.old));
        }
        let old = extents.remove(&split.old).ok_or_else(|| {
            LowerError::new(format!(
                "split of unknown dimension {:?} in {}",
                split.old, func.name
            ))
            .in_func(&func.name)
            .in_dim(&split.old)
        })?;
        // Only shift-inwards requires the extent to cover one whole factor;
        // the other strategies are exactly what makes smaller or non-dividing
        // extents legal.
        if split.tail == TailStrategy::ShiftInwards {
            if let Some(e) = old {
                if e < split.factor {
                    return Err(LowerError::new(format!(
                        "split of {:?} in {} by {} exceeds its constant extent {e}; \
                         the traversed region would overrun the required region \
                         (use a tail strategy: guard_with_if, predicate, or round_up)",
                        split.old, func.name, split.factor
                    ))
                    .in_func(&func.name)
                    .in_dim(&split.old));
                }
            }
        }
        if matches!(
            split.tail,
            TailStrategy::GuardWithIf | TailStrategy::Predicate
        ) {
            partitioned.push(split.outer.clone());
            partitioned.push(split.inner.clone());
            // The tail copy covers the remainder by overriding the inner
            // loop's extent (guard_with_if) or guarding on the recombined
            // variable (predicate); both assume the inner loop is nested
            // inside the partitioned outer loop.
            let (o, i) = (
                func.schedule.dim_index(&split.outer),
                func.schedule.dim_index(&split.inner),
            );
            if !matches!((o, i), (Some(o), Some(i)) if o < i) {
                return Err(LowerError::new(format!(
                    "{} split of {:?} in {}: the inner loop {:?} must stay nested \
                     inside the outer loop {:?}; reordering it outside breaks the \
                     main/tail partition",
                    split.tail, split.old, func.name, split.inner, split.outer
                ))
                .in_func(&func.name)
                .in_dim(&split.old));
            }
        }
        let outer = old.map(|e| (e + split.factor - 1) / split.factor);
        extents.insert(split.outer.clone(), outer);
        extents.insert(split.inner.clone(), Some(split.factor));
    }
    Ok(())
}

/// A guard_with_if or predicate split: the loop over `outer_dim` is emitted
/// twice — a main copy over the full tiles and a tail copy over the
/// remainder — instead of shifting the last tile inwards.
struct Partition {
    /// Dimension (in the loop order) whose loop is partitioned.
    inner_dim: String,
    /// `<func>.<old>` — the let-bound name of the pre-split variable.
    old_loop_var: String,
    old_min: Expr,
    old_extent: Expr,
    factor: i64,
    strategy: TailStrategy,
    /// Position in `schedule.splits`, so this split's `old` definition can
    /// be ordered against the other splits' definitions at the leaf.
    split_idx: usize,
}

/// Everything that differs between the main and tail copies of a
/// partitioned loop: extra `old`-variable definitions, accumulated store
/// predicates, and bound/kind overrides for the tail's inner loop.
#[derive(Clone, Default)]
struct BranchCtx {
    /// Definitions of partitioned splits' `old` variables on this branch,
    /// tagged with the split's application index: an earlier split's
    /// definition may reference a later split's variable (e.g. `x` split
    /// into `x_o`/`x_i`, then `x_i` split with a tail strategy), so all
    /// definitions are merged and wrapped earliest-innermost at the leaf.
    defs: Vec<(usize, String, Expr)>,
    /// Predicate-tail guards; the provide is wrapped in one `if` over their
    /// conjunction, which vectorization turns into load/store masks.
    guards: Vec<Expr>,
    /// Tail-copy overrides of an inner dimension's (extent, kind): the
    /// guard_with_if epilogue runs the remainder serially.
    overrides: HashMap<String, (Expr, ForKind)>,
}

fn build_pure_nest(func: &FuncDef, region: &[Range]) -> Result<Stmt> {
    let schedule = &func.schedule;

    // Substitute bare argument names with prefixed loop variables in the
    // value and the provide coordinates.
    let mut subst: HashMap<String, Expr> = HashMap::new();
    for a in &func.args {
        subst.insert(a.clone(), Expr::var_i32(loop_var(&func.name, a)));
    }
    let value = halide_ir::substitute_map(&func.value, &subst);
    let coords: Vec<Expr> = func
        .args
        .iter()
        .map(|a| Expr::var_i32(loop_var(&func.name, a)))
        .collect();
    let provide = Stmt::provide(func.name.clone(), value, coords);

    // Compute loop bounds for every dimension, applying splits.
    // `bounds` maps dimension name -> (loop min, loop extent).
    let mut bounds: HashMap<String, (Expr, Expr)> = region_map(func, region);
    // Definitions of split-away variables, tagged with application order.
    let mut split_defs: Vec<(usize, String, Expr)> = Vec::new();
    // Tail-partitioned splits, keyed by their outer dimension (where the
    // main/tail loop pair is emitted).
    let mut partitions: HashMap<String, Partition> = HashMap::new();

    for (split_idx, split) in schedule.splits.iter().enumerate() {
        // Split existence, constant-extent legality and re-splits of
        // partitioned dimensions were already checked by `validate_splits`;
        // this lookup cannot fail after it passes.
        let (old_min, old_extent) = bounds.remove(&split.old).ok_or_else(|| {
            LowerError::new(format!(
                "split of unknown dimension {:?} in {}",
                split.old, func.name
            ))
            .in_func(&func.name)
            .in_dim(&split.old)
        })?;
        let factor = Expr::int(split.factor as i32);
        let outer_extent =
            halide_ir::simplify(&((old_extent.clone() + (factor.clone() - 1)) / factor.clone()));
        bounds.insert(split.outer.clone(), (Expr::int(0), outer_extent));
        bounds.insert(split.inner.clone(), (Expr::int(0), factor.clone()));
        let outer_var = Expr::var_i32(loop_var(&func.name, &split.outer));
        let inner_var = Expr::var_i32(loop_var(&func.name, &split.inner));
        match split.tail {
            TailStrategy::ShiftInwards => {
                // old = old_min + min(outer*factor, max(extent-factor, 0)) + inner
                let base = Expr::min(
                    outer_var * factor.clone(),
                    Expr::max(old_extent.clone() - factor, Expr::int(0)),
                );
                split_defs.push((
                    split_idx,
                    loop_var(&func.name, &split.old),
                    old_min + base + inner_var,
                ));
            }
            TailStrategy::RoundUp => {
                // old = old_min + outer*factor + inner; the last tile runs
                // past the required region, into the allocation padding.
                split_defs.push((
                    split_idx,
                    loop_var(&func.name, &split.old),
                    old_min + outer_var * factor + inner_var,
                ));
            }
            TailStrategy::GuardWithIf | TailStrategy::Predicate => {
                partitions.insert(
                    split.outer.clone(),
                    Partition {
                        inner_dim: split.inner.clone(),
                        old_loop_var: loop_var(&func.name, &split.old),
                        old_min,
                        old_extent,
                        factor: split.factor,
                        strategy: split.tail,
                        split_idx,
                    },
                );
            }
        }
    }

    wrap_dims(
        func,
        0,
        &bounds,
        &partitions,
        &split_defs,
        &provide,
        BranchCtx::default(),
    )
}

/// Wraps `provide` in the loops of `func.schedule.dims[idx..]`, innermost
/// copies built first via recursion. A dimension that is the outer half of a
/// tail-partitioned split is emitted as a main loop over the full tiles plus
/// a tail copy of everything inside it:
///
/// * `guard_with_if` — a copy with the split's inner loop replaced by a
///   *serial* loop over the remainder (the scalar epilogue),
/// * `predicate` — one more full-width iteration, entered only when the
///   extent does not divide, with the provide guarded by
///   `old < old_min + old_extent` (which vectorization lowers to store/load
///   masks).
fn wrap_dims(
    func: &FuncDef,
    idx: usize,
    bounds: &HashMap<String, (Expr, Expr)>,
    partitions: &HashMap<String, Partition>,
    split_defs: &[(usize, String, Expr)],
    provide: &Stmt,
    ctx: BranchCtx,
) -> Result<Stmt> {
    let dims = &func.schedule.dims;
    if idx == dims.len() {
        let mut body = provide.clone();
        if let Some(guard) = ctx
            .guards
            .iter()
            .cloned()
            .reduce(|a, b| halide_ir::Expr::and(a, b))
        {
            body = Stmt::if_then_else(guard, body, None);
        }
        // All `old`-variable definitions — shared and branch-local alike —
        // in application order, earliest innermost: an earlier split's
        // definition may reference a variable a *later* split defines
        // (splitting `x`, then re-splitting `x_i`), so the later definition
        // must be the outer let.
        let mut defs: Vec<&(usize, String, Expr)> =
            ctx.defs.iter().chain(split_defs.iter()).collect();
        defs.sort_by_key(|(idx, _, _)| *idx);
        for (_, name, def) in defs {
            body = Stmt::let_stmt(name.clone(), def.clone(), body);
        }
        return Ok(body);
    }
    let dim = &dims[idx];
    if let Some(p) = partitions.get(&dim.name) {
        let outer_var = Expr::var_i32(loop_var(&func.name, &dim.name));
        let inner_var = Expr::var_i32(loop_var(&func.name, &p.inner_dim));
        let factor = Expr::int(p.factor as i32);
        let full_tiles = halide_ir::simplify(&(p.old_extent.clone() / factor.clone()));
        let covered = halide_ir::simplify(&(full_tiles.clone() * factor.clone()));

        // Main copy: full tiles only, exact coordinates, no guard.
        let mut main_ctx = ctx.clone();
        main_ctx.defs.push((
            p.split_idx,
            p.old_loop_var.clone(),
            p.old_min.clone() + outer_var * factor + inner_var.clone(),
        ));
        let main_body = wrap_dims(
            func,
            idx + 1,
            bounds,
            partitions,
            split_defs,
            provide,
            main_ctx,
        )?;
        let main = Stmt::for_loop(
            loop_var(&func.name, &dim.name),
            Expr::int(0),
            full_tiles,
            dim.kind,
            main_body,
        );

        let tail_base = p.old_min.clone() + covered.clone();
        let tail = match p.strategy {
            TailStrategy::GuardWithIf => {
                // Scalar epilogue: the inner loop runs serially over the
                // remainder (extent zero when the factor divides).
                let mut t = ctx.clone();
                t.defs
                    .push((p.split_idx, p.old_loop_var.clone(), tail_base + inner_var));
                let remainder = halide_ir::simplify(&(p.old_extent.clone() - covered.clone()));
                t.overrides
                    .insert(p.inner_dim.clone(), (remainder, ForKind::Serial));
                wrap_dims(func, idx + 1, bounds, partitions, split_defs, provide, t)?
            }
            TailStrategy::Predicate => {
                // One more full-width iteration, with the provide guarded so
                // out-of-range lanes are masked off; entered only when the
                // factor does not divide the extent.
                let mut t = ctx.clone();
                t.defs
                    .push((p.split_idx, p.old_loop_var.clone(), tail_base + inner_var));
                t.guards.push(Expr::lt(
                    Expr::var_i32(p.old_loop_var.clone()),
                    p.old_min.clone() + p.old_extent.clone(),
                ));
                let tail_body =
                    wrap_dims(func, idx + 1, bounds, partitions, split_defs, provide, t)?;
                Stmt::if_then_else(Expr::lt(covered, p.old_extent.clone()), tail_body, None)
            }
            _ => unreachable!("only guard_with_if/predicate splits are partitioned"),
        };
        return Ok(Stmt::block(main, tail));
    }

    let (min, mut extent) = bounds.get(&dim.name).cloned().ok_or_else(|| {
        LowerError::new(format!(
            "schedule of {} has dimension {:?} with no bounds (was it split away?)",
            func.name, dim.name
        ))
        .in_func(&func.name)
        .in_dim(&dim.name)
    })?;
    let mut kind = dim.kind;
    if let Some((ext, k)) = ctx.overrides.get(&dim.name) {
        extent = ext.clone();
        kind = *k;
    }
    let body = wrap_dims(func, idx + 1, bounds, partitions, split_defs, provide, ctx)?;
    Ok(Stmt::for_loop(
        loop_var(&func.name, &dim.name),
        min,
        extent,
        kind,
        body,
    ))
}

fn build_update_nest(
    func: &FuncDef,
    stage: usize,
    update: &crate::inject::UpdateDefSnapshot,
    region: &[Range],
) -> Result<Stmt> {
    let stage_index = stage + 1;
    // Substitutions: pure args and reduction variables both get
    // stage-qualified loop variable names so no two loops in the lowered
    // program collide.
    let mut subst: HashMap<String, Expr> = HashMap::new();
    for a in &func.args {
        subst.insert(
            a.clone(),
            Expr::var_i32(update_loop_var(&func.name, stage_index, a)),
        );
    }
    if let Some(rdom) = &update.rdom {
        for rv in &rdom.dims {
            subst.insert(
                rv.name.clone(),
                Expr::var_i32(update_loop_var(&func.name, stage_index, &rv.name)),
            );
        }
    }

    let value = halide_ir::substitute_map(&update.value, &subst);
    let coords: Vec<Expr> = update
        .args
        .iter()
        .map(|a| halide_ir::substitute_map(a, &subst))
        .collect();
    let mut body = Stmt::provide(func.name.clone(), value, coords);

    // Reduction loops, first dimension innermost (lexicographic order).
    if let Some(rdom) = &update.rdom {
        for rv in &rdom.dims {
            body = Stmt::for_loop(
                update_loop_var(&func.name, stage_index, &rv.name),
                rv.min.clone(),
                rv.extent.clone(),
                ForKind::Serial,
                body,
            );
        }
    }

    // Pure variables that actually appear in the update's coordinates also
    // loop (over the full required region); ones that don't appear are not
    // looped (the update touches a lower-dimensional slice).
    let regions = region_map(func, region);
    for (a, coord) in func.args.iter().zip(update.args.iter()) {
        let uses_pure_var =
            halide_ir::expr_uses_var(coord, a) || coord.as_var().map(|v| v == a).unwrap_or(false);
        if uses_pure_var {
            let (min, extent) = regions[a].clone();
            body = Stmt::for_loop(
                update_loop_var(&func.name, stage_index, a),
                min,
                extent,
                ForKind::Serial,
                body,
            );
        }
    }

    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inject::snapshot_pipeline;
    use halide_ir::{CallType, StmtNode, Type};
    use halide_lang::{Func, ImageParam, Pipeline, RDom, Var};

    fn simple_func(name: &str) -> FuncDef {
        let input = ImageParam::new(format!("{name}_in"), Type::f32(), 2);
        let (x, y) = (Var::new("x"), Var::new("y"));
        let f = Func::new(name);
        f.define(
            &[x.clone(), y.clone()],
            input.at(vec![x.expr(), y.expr()]) * 2.0f32,
        );
        let p = Pipeline::new(&f);
        let env = snapshot_pipeline(&p);
        env[&f.name()].clone()
    }

    fn region_2d(w: i32, h: i32) -> Vec<Range> {
        vec![
            Range::new(Expr::int(0), Expr::int(w)),
            Range::new(Expr::int(0), Expr::int(h)),
        ]
    }

    fn count_loops(s: &Stmt) -> Vec<(String, ForKind)> {
        fn walk(s: &Stmt, out: &mut Vec<(String, ForKind)>) {
            match s.node() {
                StmtNode::For {
                    name, kind, body, ..
                } => {
                    out.push((name.clone(), *kind));
                    walk(body, out);
                }
                StmtNode::Block { stmts } => stmts.iter().for_each(|s| walk(s, out)),
                StmtNode::LetStmt { body, .. }
                | StmtNode::Producer { body, .. }
                | StmtNode::Realize { body, .. }
                | StmtNode::Allocate { body, .. } => walk(body, out),
                StmtNode::IfThenElse {
                    then_case,
                    else_case,
                    ..
                } => {
                    walk(then_case, out);
                    if let Some(e) = else_case {
                        walk(e, out);
                    }
                }
                _ => {}
            }
        }
        let mut v = Vec::new();
        walk(s, &mut v);
        v
    }

    #[test]
    fn default_schedule_builds_row_major_loops() {
        let f = simple_func("nest_simple");
        let s = build_produce_nest(&f, &region_2d(16, 8)).unwrap();
        let loops = count_loops(&s);
        assert_eq!(loops.len(), 2);
        assert_eq!(loops[0].0, format!("{}.y", f.name));
        assert_eq!(loops[1].0, format!("{}.x", f.name));
    }

    #[test]
    fn split_generates_outer_inner_and_let() {
        let mut f = simple_func("nest_split");
        f.schedule.split("x", "xo", "xi", 4).unwrap();
        f.schedule.vectorize("xi").unwrap();
        let s = build_produce_nest(&f, &region_2d(16, 8)).unwrap();
        let text = s.to_string();
        assert!(text.contains(&format!("{}.xo", f.name)));
        assert!(text.contains(&format!("vectorized for {}.xi", f.name)));
        assert!(text.contains(&format!("let {}.x =", f.name)));
        // shift-inwards: min(xo*4, extent-4)
        assert!(text.contains("min("));
        let loops = count_loops(&s);
        assert_eq!(loops.len(), 3);
    }

    #[test]
    fn region_mismatch_is_error() {
        let f = simple_func("nest_bad_region");
        assert!(build_produce_nest(&f, &[Range::new(Expr::int(0), Expr::int(4))]).is_err());
    }

    #[test]
    fn update_stage_loops_over_rdom() {
        let i = Var::new("i");
        let hist = Func::new("nest_hist");
        hist.define(&[i.clone()], Expr::int(0));
        let r = RDom::over("r", 0, 100);
        hist.update(
            vec![r.x().expr() % 16],
            hist.at(vec![r.x().expr() % 16]) + 1,
            Some(r),
        );
        let p = Pipeline::new(&hist);
        let env = snapshot_pipeline(&p);
        let def = env[&hist.name()].clone();
        let s = build_produce_nest(&def, &[Range::new(Expr::int(0), Expr::int(16))]).unwrap();
        let loops = count_loops(&s);
        // init loop over i plus the reduction loop
        assert_eq!(loops.len(), 2);
        assert!(loops[1].0.contains(".s1.r.x"));
        // the provide inside the update references the reduction loop var
        let text = s.to_string();
        assert!(text.contains(&format!("{}.s1.r.x", def.name)));
    }

    #[test]
    fn update_with_pure_vars_loops_over_them() {
        let (x, y) = (Var::new("x"), Var::new("y"));
        let f = Func::new("nest_pure_update");
        f.define(&[x.clone(), y.clone()], Expr::f32(0.0));
        // f(x, y) += 1 over a 1-D rdom in y only; x appears as a pure var.
        let r = RDom::over("ry", 0, 4);
        f.update(
            vec![x.expr(), r.x().expr()],
            f.at(vec![x.expr(), r.x().expr()]) + 1.0f32,
            Some(r),
        );
        let p = Pipeline::new(&f);
        let env = snapshot_pipeline(&p);
        let def = env[&f.name()].clone();
        let s = build_produce_nest(&def, &region_2d(8, 4)).unwrap();
        let loops = count_loops(&s);
        // 2 init loops + (1 pure x loop + 1 rdom loop) for the update
        assert_eq!(loops.len(), 4);
    }

    #[test]
    fn provide_value_uses_prefixed_vars() {
        let f = simple_func("nest_prefix");
        let s = build_produce_nest(&f, &region_2d(4, 4)).unwrap();
        fn find_provide(s: &Stmt) -> Option<(String, Vec<Expr>)> {
            match s.node() {
                StmtNode::Provide { name, args, .. } => Some((name.clone(), args.clone())),
                StmtNode::For { body, .. }
                | StmtNode::LetStmt { body, .. }
                | StmtNode::Producer { body, .. } => find_provide(body),
                StmtNode::Block { stmts } => stmts.iter().find_map(find_provide),
                _ => None,
            }
        }
        let (name, args) = find_provide(&s).unwrap();
        assert_eq!(name, f.name);
        assert_eq!(args[0].to_string(), format!("{}.x", f.name));
        assert_eq!(args[1].to_string(), format!("{}.y", f.name));
    }

    #[test]
    fn image_calls_remain_symbolic() {
        let f = simple_func("nest_image");
        let s = build_produce_nest(&f, &region_2d(4, 4)).unwrap();
        // the input image call should still be a Call node (flattening comes later)
        let text = s.to_string();
        assert!(text.contains("nest_image_in("));
        let _ = CallType::Image; // silence unused import in some cfgs
    }
}
