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
//!
//! The pure definition and every update stage go through one builder: each
//! is a domain order (splits, loop order, loop kinds) over its own
//! dimensions. An update's dimensions are the pure variables its
//! coordinates use, looping over the required region, and the variables of
//! its reduction domain, looping over the domain. A split reduction
//! variable's tail is always written the way a predicate tail is — whole
//! tiles, then one guarded tile `let r.x = …; if (r.x < r.x.min +
//! r.x.extent)` — so that after an `rfactor` its inner half can be a
//! vectorized pure loop whose last tile is masked.

use std::collections::{HashMap, HashSet};

use halide_ir::{BinOp, CallType, Expr, ExprNode, ForKind, IrMutator, IrVisitor, Range, Stmt};
use halide_schedule::{Dim, Split, StageSchedule, TailStrategy};

use crate::error::{LowerError, Result};
use crate::inject::{FuncDef, UpdateDefSnapshot};

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
/// pure argument, in argument order): the pure initialization, then each
/// update definition in order, every stage honouring its own schedule's
/// splits, loop order, and loop kinds. An update's default order loops its
/// reduction domain lexicographically (first dimension innermost) inside
/// the pure variables its coordinates use.
///
/// Pure-definition splits follow their tail strategy (see
/// [`TailStrategy`]); an update stage may only use `guard_with_if` or
/// `predicate`, which visit every point exactly once.
///
/// # Errors
///
/// Fails if the schedule references dimensions that do not exist, if the
/// region does not cover every pure argument, or if an update stage's
/// schedule would change the update's result (see [`validate_splits`]).
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

/// The pure arguments update `update` of `func` loops over.
fn looped_args(func: &FuncDef, update: &UpdateDefSnapshot) -> Vec<String> {
    halide_lang::func::looped_args(&func.args, &update.args)
}

/// The names of update `update`'s reduction variables, in domain order.
fn rvar_names(update: &UpdateDefSnapshot) -> Vec<String> {
    update
        .rdom
        .iter()
        .flat_map(|r| r.dims.iter().map(|d| d.name.clone()))
        .collect()
}

/// Checks every stage's splits against the *concrete* inferred region: a
/// split whose factor exceeds a known-constant extent would make the
/// shift-inwards tail strategy traverse more than the required region,
/// so it is rejected here (with the offending function and dimension named)
/// rather than silently over-computing. Injection passes a producer's
/// region already grown to one factor along each shift-inwards region
/// dimension, so what this rejects is a wider shift-inwards split of a
/// split's half (a tile re-split by more than its width). Update stages
/// are also checked for the transformations that would change their
/// result: vectorizing or parallelizing a pure variable whose points
/// depend on each other, a split that is not `guard_with_if`/`predicate`,
/// a reordered, vectorized or parallel reduction loop, and an `rfactor` of
/// anything but an integer `+`, `min` or `max`.
///
/// The loop nest itself is built over symbolic bounds names, so this check
/// must run where the concrete region is still at hand — injection calls it
/// right after bounds inference.
///
/// It also rejects a stage with more than one vectorized loop: each turns
/// the index into a ramp of its own width, and the engines would broadcast
/// the narrower ramp against the wider one rather than fail, storing wrong
/// pixels.
///
/// # Errors
///
/// Fails if a split factor exceeds the constant extent of the dimension it
/// splits, if a split references a dimension the stage does not have, if
/// two of a stage's loops are vectorized, or if an update stage's schedule
/// is illegal.
pub fn validate_splits(func: &FuncDef, region: &[Range]) -> Result<()> {
    let regions: HashMap<String, Option<i64>> = func
        .args
        .iter()
        .cloned()
        .zip(region.iter().map(|r| r.extent.as_const_int()))
        .collect();
    validate_domain(
        &func.name,
        &func.schedule.splits,
        &func.schedule.dims,
        regions.clone(),
        &|_| false,
    )?;
    for (i, update) in func.updates.iter().enumerate() {
        let pure = looped_args(func, update);
        let extents = pure
            .iter()
            .map(|a| (a.clone(), regions[a]))
            .chain(update.rdom.iter().flat_map(|r| {
                r.dims
                    .iter()
                    .map(|d| (d.name.clone(), d.extent.as_const_int()))
            }))
            .collect();
        let s = &update.schedule;
        let rvars = rvar_names(update);
        let origins = dim_origins(&s.splits, &pure);
        let over_rvar = |d: &str| {
            rvars
                .iter()
                .any(|r| r == origins.get(d).map_or(d, String::as_str))
        };
        validate_domain(&func.name, &s.splits, &s.dims, extents, &over_rvar)?;
        check_update(func, i)?;
    }
    Ok(())
}

/// The checks of [`validate_splits`] for one stage whose dimensions start
/// out with the (constant, when known) `extents`. `guarded(d)` is true for
/// the dimensions over reduction variables: their tails are predicated
/// whatever the strategy, and since the tail recombines `old` from the
/// inner half's own variable, that half (an `rfactor` intermediate's pure
/// dimension) may loop outside the outer half.
fn validate_domain(
    func: &str,
    splits: &[Split],
    dims: &[Dim],
    mut extents: HashMap<String, Option<i64>>,
    guarded: &dyn Fn(&str) -> bool,
) -> Result<()> {
    let mut vectorized = dims.iter().filter(|d| d.kind == ForKind::Vectorized);
    if let (Some(a), Some(b)) = (vectorized.next(), vectorized.next()) {
        return Err(LowerError::new(format!(
            "{func} vectorizes both {:?} and {:?}; a loop nest may vectorize one loop",
            a.name, b.name
        ))
        .in_func(func)
        .in_dim(&b.name));
    }
    let dim_index = |name: &str| dims.iter().position(|d| d.name == name);
    // Dimensions produced by a tail-partitioned split: the loop pair is
    // duplicated into a main and a tail copy, so re-splitting either half
    // has no single loop to act on.
    let mut partitioned: Vec<String> = Vec::new();
    for split in splits {
        if partitioned.contains(&split.old) {
            return Err(LowerError::new(format!(
                "cannot split {:?} in {func}: it comes from a guard_with_if/predicate \
                 split, whose loops are partitioned into a main and a tail copy; \
                 apply the tail strategy to the last split of a dimension instead",
                split.old
            ))
            .in_func(func)
            .in_dim(&split.old));
        }
        let old = extents.remove(&split.old).ok_or_else(|| {
            LowerError::new(format!(
                "split of unknown dimension {:?} in {func}",
                split.old
            ))
            .in_func(func)
            .in_dim(&split.old)
        })?;
        // Only shift-inwards requires the extent to cover one whole factor;
        // the other strategies are exactly what makes smaller or non-dividing
        // extents legal.
        if split.tail == TailStrategy::ShiftInwards {
            if let Some(e) = old {
                if e < split.factor {
                    return Err(LowerError::new(format!(
                        "split of {:?} in {func} by {} exceeds its constant extent {e}; \
                         the traversed region would overrun the required region \
                         (use a tail strategy: guard_with_if, predicate, or round_up)",
                        split.old, split.factor
                    ))
                    .in_func(func)
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
            let (o, i) = (dim_index(&split.outer), dim_index(&split.inner));
            if !guarded(&split.old) && !matches!((o, i), (Some(o), Some(i)) if o < i) {
                return Err(LowerError::new(format!(
                    "{} split of {:?} in {func}: the inner loop {:?} must stay nested \
                     inside the outer loop {:?}; reordering it outside breaks the \
                     main/tail partition",
                    split.tail, split.old, split.inner, split.outer
                ))
                .in_func(func)
                .in_dim(&split.old));
            }
        }
        let outer = old.map(|e| (e + split.factor - 1) / split.factor);
        extents.insert(split.outer.clone(), outer);
        extents.insert(split.inner.clone(), Some(split.factor));
    }
    Ok(())
}

/// The original dimension (a pure argument or a reduction variable) each
/// loop dimension of a stage derives from through its splits. The inner
/// half of a split may itself be a pure argument (an `rfactor`
/// intermediate's `u`), which is then its own origin.
fn dim_origins(splits: &[Split], pure: &[String]) -> HashMap<String, String> {
    let mut origin: HashMap<String, String> = HashMap::new();
    for s in splits {
        let root = origin.get(&s.old).cloned().unwrap_or_else(|| s.old.clone());
        origin.insert(s.outer.clone(), root.clone());
        if !pure.contains(&s.inner) {
            origin.insert(s.inner.clone(), root);
        }
    }
    origin
}

/// True if the points of update `update` of `func` along pure argument
/// `arg` (at position `pos`) are independent: the coordinate written there
/// is `arg` itself, and every self-reference reads `arg` at that position.
/// Only then may its loop run in any order, in parallel or as a vector.
fn independent_along(func: &FuncDef, update: &UpdateDefSnapshot, pos: usize, arg: &str) -> bool {
    struct SelfRefs<'a> {
        func: &'a str,
        pos: usize,
        arg: &'a str,
        ok: bool,
    }
    impl IrVisitor for SelfRefs<'_> {
        fn visit_expr(&mut self, e: &Expr) {
            if let ExprNode::Call {
                name,
                call_type: CallType::Halide,
                args,
                ..
            } = e.node()
            {
                if name == self.func && args[self.pos].as_var() != Some(self.arg) {
                    self.ok = false;
                }
            }
            halide_ir::visit_expr_children(self, e);
        }
    }
    if update.args[pos].as_var() != Some(arg) {
        return false;
    }
    let mut refs = SelfRefs {
        func: &func.name,
        pos,
        arg,
        ok: true,
    };
    refs.visit_expr(&update.value);
    update.args.iter().for_each(|a| refs.visit_expr(a));
    refs.ok
}

/// The schedule rules of an update stage — the transformations that keep
/// an update's result:
///
/// * (a) a pure variable may be vectorized, parallelized or moved among the
///   reduction loops only if the update's points along it are independent
///   (see [`independent_along`]);
/// * (b) a split must be `guard_with_if` or `predicate`: `shift_inwards`
///   would apply the update twice to the points the last tile overlaps, and
///   `round_up` writes outside the region;
/// * (c) a reduction variable may be split and unrolled, but its loops keep
///   the definition's order, each split's inner loop directly inside its
///   outer one, and are never vectorized or parallelized (the way to do
///   that is `rfactor`);
/// * (d) an `rfactor` merge must be `f(a) = f(a) op intm(…)` with `op`
///   integer `+`, `min` or `max`: integer stores wrap, so reassociating the
///   reduction is exact, while a float sum changes bits and a float `min`
///   of ±0.0 depends on the order.
fn check_update(func: &FuncDef, index: usize) -> Result<()> {
    let update = &func.updates[index];
    let schedule = &update.schedule;
    let stage = format!("update {index} of {}", func.name);
    let err = |msg: String, dim: &str| {
        Err(LowerError::new(format!("{stage} {msg}"))
            .in_func(&func.name)
            .in_dim(dim))
    };
    if let Some(rf) = &schedule.rfactor {
        let factorable = match update.value.node() {
            ExprNode::Bin { op, a, b } => {
                let calls = |e: &Expr, f: &str| matches!(e.node(), ExprNode::Call { name, .. } if name == f);
                matches!(op, BinOp::Add | BinOp::Min | BinOp::Max)
                    && ((calls(a, &func.name) && calls(b, &rf.intm))
                        || (calls(b, &func.name) && calls(a, &rf.intm)))
            }
            _ => false,
        };
        if !factorable {
            return err(
                format!(
                    "cannot rfactor {:?}: only an update f(a) = f(a) op e, with op +, min \
                     or max and e not reading f, can be factored",
                    rf.rvar
                ),
                &rf.rvar,
            );
        }
        if func.ty.is_float() {
            return err(
                format!(
                    "cannot rfactor {:?}: {} reductions are not reassociated; a float sum \
                     changes bits, and a float min or max of ±0.0 depends on the order \
                     (only integer +, min and max are factored)",
                    rf.rvar, func.ty
                ),
                &rf.rvar,
            );
        }
    }
    for s in &schedule.splits {
        if !matches!(s.tail, TailStrategy::GuardWithIf | TailStrategy::Predicate) {
            return err(
                format!(
                    "splits {:?} with tail strategy {}; an update may only be split with \
                     guard_with_if or predicate: shift_inwards would apply the update twice \
                     to the points its last tile overlaps, and round_up writes outside the \
                     region",
                    s.old, s.tail
                ),
                &s.old,
            );
        }
    }
    let pure = looped_args(func, update);
    let independent: HashSet<&str> = func
        .args
        .iter()
        .enumerate()
        .filter(|(pos, a)| pure.contains(a) && independent_along(func, update, *pos, a))
        .map(|(_, a)| a.as_str())
        .collect();
    let origins = dim_origins(&schedule.splits, &pure);
    let origin = |d: &str| origins.get(d).map_or(d, String::as_str).to_string();
    let rvars = rvar_names(update);
    for d in &schedule.dims {
        let verb = match d.kind {
            ForKind::Vectorized => "vectorizes",
            ForKind::Parallel => "parallelizes",
            _ => continue,
        };
        let o = origin(&d.name);
        if rvars.contains(&o) {
            return err(
                format!(
                    "{verb} {:?}, a loop over the reduction variable {o:?}; a reduction \
                     runs in order (rfactor it into a pure dimension first)",
                    d.name
                ),
                &d.name,
            );
        }
        if !independent.contains(o.as_str()) {
            return err(
                format!(
                    "{verb} {:?}, but its points along {o:?} are not independent: the \
                     coordinate written there is not {o:?} itself, or a self-reference \
                     reads another point",
                    d.name
                ),
                &d.name,
            );
        }
    }
    // The loops that carry the reduction's order (those over reduction
    // variables and over dependent pure variables) must appear in the
    // definition's order, with splits expanded in place.
    let carried = |name: &str| !independent.contains(origin(name).as_str());
    let mut expected: Vec<String> = StageSchedule::default_for(&pure, &rvars)
        .dims
        .into_iter()
        .map(|d| d.name)
        .collect();
    for s in &schedule.splits {
        if let Some(at) = expected.iter().position(|n| *n == s.old) {
            expected.splice(at..=at, [s.outer.clone(), s.inner.clone()]);
        }
    }
    expected.retain(|n| carried(n));
    let actual: Vec<&String> = schedule
        .dims
        .iter()
        .filter(|d| carried(&d.name))
        .map(|d| &d.name)
        .collect();
    if let Some((want, got)) = expected.iter().zip(&actual).find(|(w, g)| w != *g) {
        return err(
            format!(
                "reorders {got:?} where {want:?} belongs: loops over reduction variables \
                 (and over pure variables a self-reference shifts) keep the definition's \
                 order, each split's inner loop directly inside its outer loop"
            ),
            got,
        );
    }
    Ok(())
}

/// The recombined variable of a shift-inwards split over an extent of at
/// least one factor, `old = old_min + min(outer*factor, extent - factor) +
/// inner`: the form the loop builder emits and bounds inference reads back
/// as a closed-form interval.
pub(crate) struct ShiftInwards<'a> {
    pub old_min: &'a Expr,
    pub outer: &'a Expr,
    pub factor: i64,
    pub extent: &'a Expr,
    pub inner: &'a Expr,
}

impl<'a> ShiftInwards<'a> {
    fn build(&self) -> Expr {
        let factor = Expr::int(self.factor as i32);
        let shift = Expr::min(
            self.outer.clone() * factor.clone(),
            self.extent.clone() - factor,
        );
        self.old_min.clone() + shift + self.inner.clone()
    }

    /// The parts of `value` if it has the form [`build`](Self::build) emits.
    pub fn parse(value: &'a Expr) -> Option<Self> {
        let add = |e: &'a Expr| match e.node() {
            ExprNode::Bin {
                op: BinOp::Add,
                a,
                b,
            } => Some((a, b)),
            _ => None,
        };
        let (head, inner) = add(value)?;
        let (old_min, shift) = add(head)?;
        let ExprNode::Bin {
            op: BinOp::Min,
            a: tile,
            b: last,
        } = shift.node()
        else {
            return None;
        };
        let (
            ExprNode::Bin {
                op: BinOp::Mul,
                a: outer,
                b: f1,
            },
            ExprNode::Bin {
                op: BinOp::Sub,
                a: extent,
                b: f2,
            },
        ) = (tile.node(), last.node())
        else {
            return None;
        };
        let factor = f1
            .as_const_int()
            .filter(|f| Some(*f) == f2.as_const_int())?;
        Some(ShiftInwards {
            old_min,
            outer,
            factor,
            extent,
            inner,
        })
    }
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

/// One definition — the pure definition or an update stage — as the loop
/// builder sees it: its domain order, the bounds of its dimensions before
/// splitting, and how its loop variables are named.
struct StageNest<'a> {
    func: &'a str,
    /// 1-based update stage number; `None` for the pure definition.
    stage: Option<usize>,
    splits: &'a [Split],
    dims: &'a [Dim],
    /// `(min, extent)` of each unsplit dimension.
    bounds: HashMap<String, (Expr, Expr)>,
    /// The reduction variables; split loops derived from them are guarded
    /// in place rather than partitioned.
    rvars: Vec<String>,
    /// The pure arguments the stage loops over.
    pure: Vec<String>,
}

/// The loops, split definitions and tail handling of one stage, ready to
/// wrap a provide.
struct Loops {
    /// `dim -> (loop min, loop extent)`.
    bounds: HashMap<String, (Expr, Expr)>,
    /// Definitions of split-away variables, tagged with application order.
    split_defs: Vec<(usize, String, Expr)>,
    /// Tail-partitioned splits, keyed by their outer dimension (where the
    /// main/tail loop pair is emitted).
    partitions: HashMap<String, Partition>,
}

impl StageNest<'_> {
    fn loop_var(&self, dim: &str) -> String {
        match self.stage {
            None => loop_var(self.func, dim),
            Some(s) => update_loop_var(self.func, s, dim),
        }
    }

    /// Builds the stage's loop nest around `provide`.
    fn build(&self, provide: &Stmt) -> Result<Stmt> {
        let loops = self.apply_splits()?;
        self.wrap_dims(0, &loops, provide, BranchCtx::default())
    }

    fn apply_splits(&self) -> Result<Loops> {
        let mut loops = Loops {
            bounds: self.bounds.clone(),
            split_defs: Vec::new(),
            partitions: HashMap::new(),
        };
        let origins = dim_origins(self.splits, &self.pure);
        for (split_idx, split) in self.splits.iter().enumerate() {
            // Split existence, constant-extent legality and re-splits of
            // partitioned dimensions were already checked by
            // `validate_splits`; this lookup cannot fail after it passes.
            let (old_min, old_extent) = loops.bounds.remove(&split.old).ok_or_else(|| {
                LowerError::new(format!(
                    "split of unknown dimension {:?} in {}",
                    split.old, self.func
                ))
                .in_func(self.func)
                .in_dim(&split.old)
            })?;
            let factor = Expr::int(split.factor as i32);
            let outer_extent = halide_ir::simplify(
                &((old_extent.clone() + (factor.clone() - 1)) / factor.clone()),
            );
            loops
                .bounds
                .insert(split.outer.clone(), (Expr::int(0), outer_extent));
            loops
                .bounds
                .insert(split.inner.clone(), (Expr::int(0), factor.clone()));
            let outer_var = Expr::var_i32(self.loop_var(&split.outer));
            let inner_var = Expr::var_i32(self.loop_var(&split.inner));
            let old_var = self.loop_var(&split.old);
            // A reduction variable's tail is always predicated: its loop
            // pair keeps the domain's order, and the tile's inner half may
            // be an `rfactor` intermediate's vectorized pure dimension,
            // which a scalar epilogue could not follow.
            let origin = origins.get(&split.old).unwrap_or(&split.old);
            let tail = if self.rvars.contains(origin) {
                TailStrategy::Predicate
            } else {
                split.tail
            };
            match tail {
                TailStrategy::ShiftInwards => {
                    // old = old_min + min(outer*factor, extent-factor) + inner
                    // where the extent is at least one factor: a region
                    // dimension of the pure definition (injection grows a
                    // producer's to one factor, the output asserts it) or a
                    // constant `validate_splits` checked. Anywhere else the
                    // shift is clamped at the region's min.
                    let covers = match old_extent.as_const_int() {
                        Some(e) => e >= split.factor,
                        None => {
                            self.stage.is_none()
                                && self
                                    .bounds
                                    .get(&split.old)
                                    .is_some_and(|(m, e)| *m == old_min && *e == old_extent)
                        }
                    };
                    let def = if covers {
                        ShiftInwards {
                            old_min: &old_min,
                            outer: &outer_var,
                            factor: split.factor,
                            extent: &old_extent,
                            inner: &inner_var,
                        }
                        .build()
                    } else {
                        let last = Expr::max(old_extent.clone() - factor.clone(), Expr::int(0));
                        old_min.clone() + Expr::min(outer_var * factor, last) + inner_var
                    };
                    loops.split_defs.push((split_idx, old_var, def));
                }
                TailStrategy::RoundUp => {
                    // old = old_min + outer*factor + inner; the last tile runs
                    // past the required region, into the allocation padding.
                    loops.split_defs.push((
                        split_idx,
                        old_var,
                        old_min + outer_var * factor + inner_var,
                    ));
                }
                TailStrategy::GuardWithIf | TailStrategy::Predicate => {
                    loops.partitions.insert(
                        split.outer.clone(),
                        Partition {
                            inner_dim: split.inner.clone(),
                            old_loop_var: old_var,
                            old_min,
                            old_extent,
                            factor: split.factor,
                            strategy: tail,
                            split_idx,
                        },
                    );
                }
            }
        }
        Ok(loops)
    }

    /// Wraps `provide` in the loops of `self.dims[idx..]`, innermost copies
    /// built first via recursion. A dimension that is the outer half of a
    /// tail-partitioned split is emitted as a main loop over the full tiles
    /// plus a tail copy of everything inside it:
    ///
    /// * `guard_with_if` — a copy with the split's inner loop replaced by a
    ///   *serial* loop over the remainder (the scalar epilogue),
    /// * `predicate` — one more full-width iteration, entered only when the
    ///   extent does not divide, with the provide guarded by
    ///   `old < old_min + old_extent` (which vectorization lowers to
    ///   store/load masks).
    fn wrap_dims(&self, idx: usize, loops: &Loops, provide: &Stmt, ctx: BranchCtx) -> Result<Stmt> {
        if idx == self.dims.len() {
            let mut body = provide.clone();
            if let Some(guard) = ctx.guards.iter().cloned().reduce(Expr::and) {
                body = Stmt::if_then_else(guard, body, None);
            }
            // All `old`-variable definitions — shared and branch-local alike
            // — in application order, earliest innermost: an earlier split's
            // definition may reference a variable a *later* split defines
            // (splitting `x`, then re-splitting `x_i`), so the later
            // definition must be the outer let.
            let mut defs: Vec<&(usize, String, Expr)> =
                ctx.defs.iter().chain(loops.split_defs.iter()).collect();
            defs.sort_by_key(|(idx, _, _)| *idx);
            for (_, name, def) in defs {
                body = Stmt::let_stmt(name.clone(), def.clone(), body);
            }
            return Ok(body);
        }
        let dim = &self.dims[idx];
        if let Some(p) = loops.partitions.get(&dim.name) {
            let outer_var = Expr::var_i32(self.loop_var(&dim.name));
            let inner_var = Expr::var_i32(self.loop_var(&p.inner_dim));
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
            let main_body = self.wrap_dims(idx + 1, loops, provide, main_ctx)?;
            let main = Stmt::for_loop(
                self.loop_var(&dim.name),
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
                    self.wrap_dims(idx + 1, loops, provide, t)?
                }
                TailStrategy::Predicate => {
                    // One more full-width iteration, with the provide guarded
                    // so out-of-range lanes are masked off; entered only when
                    // the factor does not divide the extent.
                    let mut t = ctx.clone();
                    t.defs
                        .push((p.split_idx, p.old_loop_var.clone(), tail_base + inner_var));
                    t.guards.push(Expr::lt(
                        Expr::var_i32(p.old_loop_var.clone()),
                        p.old_min.clone() + p.old_extent.clone(),
                    ));
                    let tail_body = self.wrap_dims(idx + 1, loops, provide, t)?;
                    Stmt::if_then_else(Expr::lt(covered, p.old_extent.clone()), tail_body, None)
                }
                _ => unreachable!("only guard_with_if/predicate splits are partitioned"),
            };
            return Ok(Stmt::block(main, tail));
        }

        let (min, mut extent) = loops.bounds.get(&dim.name).cloned().ok_or_else(|| {
            LowerError::new(format!(
                "schedule of {} has dimension {:?} with no bounds (was it split away?)",
                self.func, dim.name
            ))
            .in_func(self.func)
            .in_dim(&dim.name)
        })?;
        let mut kind = dim.kind;
        if let Some((ext, k)) = ctx.overrides.get(&dim.name) {
            extent = ext.clone();
            kind = *k;
        }
        let body = self.wrap_dims(idx + 1, loops, provide, ctx)?;
        Ok(Stmt::for_loop(
            self.loop_var(&dim.name),
            min,
            extent,
            kind,
            body,
        ))
    }
}

fn build_pure_nest(func: &FuncDef, region: &[Range]) -> Result<Stmt> {
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
    StageNest {
        func: &func.name,
        stage: None,
        splits: &func.schedule.splits,
        dims: &func.schedule.dims,
        bounds: region_map(func, region),
        rvars: Vec::new(),
        pure: func.args.clone(),
    }
    .build(&provide)
}

fn build_update_nest(
    func: &FuncDef,
    stage: usize,
    update: &UpdateDefSnapshot,
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
    let rvars = rvar_names(update);
    for rv in &rvars {
        subst.insert(
            rv.clone(),
            Expr::var_i32(update_loop_var(&func.name, stage_index, rv)),
        );
    }

    let mut value = halide_ir::substitute_map(&update.value, &subst);
    let mut coords: Vec<Expr> = update
        .args
        .iter()
        .map(|a| halide_ir::substitute_map(a, &subst))
        .collect();
    let vectorized = update
        .schedule
        .dims
        .iter()
        .any(|d| d.kind == ForKind::Vectorized);
    let shared = if vectorized {
        share_self_coordinates(func, stage_index, &mut coords, &mut value)
    } else {
        Vec::new()
    };
    let mut provide = Stmt::provide(func.name.clone(), value, coords);
    for (name, coord) in shared.into_iter().rev() {
        provide = Stmt::let_stmt(name, coord, provide);
    }

    // Pure loops span the required region; reduction loops their domain.
    let regions = region_map(func, region);
    let pure = looped_args(func, update);
    let mut bounds: HashMap<String, (Expr, Expr)> = pure
        .iter()
        .map(|a| (a.clone(), regions[a].clone()))
        .collect();
    for rv in update.rdom.iter().flat_map(|r| &r.dims) {
        bounds.insert(rv.name.clone(), (rv.min.clone(), rv.extent.clone()));
    }
    StageNest {
        func: &func.name,
        stage: Some(stage_index),
        splits: &update.schedule.splits,
        dims: &update.schedule.dims,
        bounds,
        rvars,
        pure,
    }
    .build(&provide)
}

/// True if `value` calls `func` with `coord` at position `pos`.
fn reads_self_at(value: &Expr, func: &str, pos: usize, coord: &Expr) -> bool {
    struct Reads<'a> {
        func: &'a str,
        pos: usize,
        coord: &'a Expr,
        found: bool,
    }
    impl IrVisitor for Reads<'_> {
        fn visit_expr(&mut self, e: &Expr) {
            if let ExprNode::Call {
                name,
                call_type: CallType::Halide,
                args,
                ..
            } = e.node()
            {
                self.found |= name == self.func && args[self.pos] == *self.coord;
            }
            halide_ir::visit_expr_children(self, e);
        }
    }
    let mut r = Reads {
        func,
        pos,
        coord,
        found: false,
    };
    r.visit_expr(value);
    r.found
}

/// Let-binds each non-trivial coordinate of an update that a self-reference
/// reads again — histogram's `h(bucket(in(r.x, r.y))) = h(bucket(…)) + 1` —
/// so the nest computes it once. Called for vectorized stages, where the
/// coordinate is a vector gather and arithmetic that nothing downstream
/// deduplicates (the engines' common-subexpression pass neither keys loads
/// nor touches vectors); a scalar stage keeps the definition's form.
/// Returns the bindings, outermost first; `coords` and `value` refer to
/// them afterwards.
fn share_self_coordinates(
    func: &FuncDef,
    stage: usize,
    coords: &mut [Expr],
    value: &mut Expr,
) -> Vec<(String, Expr)> {
    struct Replace<'a> {
        from: &'a Expr,
        to: &'a Expr,
    }
    impl IrMutator for Replace<'_> {
        fn mutate_expr(&mut self, e: &Expr) -> Expr {
            if e == self.from {
                return self.to.clone();
            }
            halide_ir::mutate_expr_children(self, e)
        }
    }
    let mut shared = Vec::new();
    for (pos, arg) in func.args.iter().enumerate() {
        let coord = coords[pos].clone();
        if coord.as_var().is_some()
            || coord.as_const_int().is_some()
            || !reads_self_at(value, &func.name, pos, &coord)
        {
            continue;
        }
        let name = update_loop_var(&func.name, stage, &format!("{arg}.coord"));
        let var = Expr::var(name.clone(), coord.ty());
        *value = Replace {
            from: &coord,
            to: &var,
        }
        .mutate_expr(value);
        coords[pos] = var;
        shared.push((name, coord));
    }
    shared
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
