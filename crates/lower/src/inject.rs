//! Lowering driver: snapshotting the pipeline, inlining, and injecting the
//! storage and computation of every producer at the loop levels chosen by its
//! call schedule (Sec. 4.1), with bounds inference (Sec. 4.2) integrated.
//!
//! # Let-bound bounds
//!
//! Each realization's inferred bounds are bound to *names* rather than
//! substituted through consumer chains: injection emits
//! `let <func>.<dim>.min = …` / `let <func>.<dim>.extent = …` at the
//! realization level, and the producer's loop nest, its `Realize` bounds,
//! and every later pass reference those names. This is what the paper's
//! compiler does, and it is what keeps the lowered statement *linear* in
//! pipeline depth: a loop min is always a small name-plus-offset term, so
//! the region required of the next producer up the chain — computed by the
//! let-aware walker in [`crate::bounds`] — never embeds whole interval
//! expressions of the stages below it.
//!
//! When a function's storage lives at a coarser loop level than its
//! computation (`store_at` ≠ `compute_at`), two sets of bindings with the
//! *same names* are emitted: one at the storage level (sized for the whole
//! intervening loop, referenced by the `Realize`) and one at the compute
//! level (the per-iteration region, referenced by the produce loops). The
//! inner bindings lexically shadow the outer ones; every consumer of these
//! names — the simplifier, substitution, the region walker, the executor's
//! scope — handles that shadowing.
//!
//! The output function needs no lets: its `<out>.<dim>.min/.extent` symbols
//! are bound by the executor from the output buffer supplied at realization
//! time, which is why producers and the output can share one naming scheme.

use std::collections::{BTreeMap, HashMap};

use halide_ir::{
    simplify, simplify_stmt, CallType, Expr, ExprNode, ForKind, IrMutator, Range, Stmt, StmtNode,
    Type,
};
use halide_lang::{Pipeline, RVar};
use halide_schedule::{FuncSchedule, LoopLevel, StageSchedule};

use crate::bounds::{count_calls, region_required};
use crate::error::{LowerError, Result};
use crate::nest::{build_produce_nest, loop_var, validate_splits};

/// A plain snapshot of one reduction-domain dimension.
#[derive(Debug, Clone)]
pub struct RVarSnapshot {
    /// Loop variable name (as written in the algorithm, e.g. `r.x`).
    pub name: String,
    /// Domain minimum.
    pub min: Expr,
    /// Domain extent.
    pub extent: Expr,
}

/// A plain snapshot of a reduction domain.
#[derive(Debug, Clone)]
pub struct RDomSnapshot {
    /// The domain's dimensions in lexicographic order.
    pub dims: Vec<RVarSnapshot>,
}

/// A plain snapshot of one update definition.
#[derive(Debug, Clone)]
pub struct UpdateDefSnapshot {
    /// Coordinate expressions of the update.
    pub args: Vec<Expr>,
    /// Value stored by the update.
    pub value: Expr,
    /// Reduction domain, if the update iterates over one.
    pub rdom: Option<RDomSnapshot>,
    /// The update stage's domain order.
    pub schedule: StageSchedule,
}

/// A plain, immutable snapshot of a `halide_lang::Func`, decoupled from the
/// shared frontend handles so the compiler can rewrite definitions (e.g.
/// inlining) without mutating user objects.
#[derive(Debug, Clone)]
pub struct FuncDef {
    /// Unique function name.
    pub name: String,
    /// Pure argument names, in order.
    pub args: Vec<String>,
    /// Pure definition.
    pub value: Expr,
    /// Update definitions.
    pub updates: Vec<UpdateDefSnapshot>,
    /// The function's schedule.
    pub schedule: FuncSchedule,
    /// Value type.
    pub ty: Type,
}

fn snapshot_rvar(rv: &RVar) -> RVarSnapshot {
    RVarSnapshot {
        name: rv.name().to_string(),
        min: rv.min().clone(),
        extent: rv.extent().clone(),
    }
}

/// Takes a snapshot of every function in the pipeline, keyed by name.
pub fn snapshot_pipeline(pipeline: &Pipeline) -> BTreeMap<String, FuncDef> {
    pipeline
        .funcs()
        .map(|f| {
            let updates = f
                .updates()
                .into_iter()
                .map(|u| UpdateDefSnapshot {
                    args: u.args.clone(),
                    value: u.value.clone(),
                    rdom: u.rdom.as_ref().map(|r| RDomSnapshot {
                        dims: r.dims().iter().map(snapshot_rvar).collect(),
                    }),
                    schedule: u.schedule.clone(),
                })
                .collect();
            (
                f.name(),
                FuncDef {
                    name: f.name(),
                    args: f.args(),
                    value: f.value(),
                    updates,
                    schedule: f.schedule(),
                    ty: f.ty(),
                },
            )
        })
        .collect()
}

// ---- inlining ---------------------------------------------------------------

struct Inliner<'a> {
    callee: &'a FuncDef,
}

impl IrMutator for Inliner<'_> {
    fn mutate_expr(&mut self, e: &Expr) -> Expr {
        let e = halide_ir::mutate_expr_children(self, e);
        if let ExprNode::Call {
            name,
            call_type: CallType::Halide,
            args,
            ..
        } = e.node()
        {
            if name == &self.callee.name {
                let mut map = std::collections::HashMap::new();
                for (a, arg) in self.callee.args.iter().zip(args.iter()) {
                    map.insert(a.clone(), arg.clone());
                }
                return halide_ir::substitute_map(&self.callee.value, &map);
            }
        }
        e
    }
}

/// Substitutes the definition of `callee` into `expr` at every call site.
pub fn inline_into(expr: &Expr, callee: &FuncDef) -> Expr {
    Inliner { callee }.mutate_expr(expr)
}

/// Inlines every function scheduled `compute_inline` into its callers,
/// processing producers before consumers so chains of inline functions
/// collapse completely.
///
/// # Errors
///
/// Fails if an inline function has update definitions (reductions carry
/// state and cannot be recomputed at every use site) or if the output is
/// scheduled inline.
pub fn inline_all(
    env: &mut BTreeMap<String, FuncDef>,
    order: &[String],
    output: &str,
) -> Result<()> {
    for name in order {
        let def = env[name].clone();
        if !def.schedule.compute_level.is_inline() {
            continue;
        }
        if name == output {
            return Err(LowerError::new(format!(
                "the output function {name:?} cannot be scheduled inline"
            )));
        }
        if !def.updates.is_empty() {
            return Err(LowerError::new(format!(
                "function {name:?} has update definitions and cannot be inlined"
            )));
        }
        for (_, other) in env.iter_mut() {
            if other.name == def.name {
                continue;
            }
            other.value = simplify(&inline_into(&other.value, &def));
            for u in &mut other.updates {
                u.value = simplify(&inline_into(&u.value, &def));
                for a in &mut u.args {
                    *a = simplify(&inline_into(a, &def));
                }
            }
        }
    }
    Ok(())
}

// ---- injection --------------------------------------------------------------

/// The name of the let-bound minimum of dimension `dim` of `func`
/// (`<func>.<dim>.min`).
pub fn bound_min_var(func: &str, dim: &str) -> String {
    format!("{func}.{dim}.min")
}

/// The name of the let-bound extent of dimension `dim` of `func`
/// (`<func>.<dim>.extent`).
pub fn bound_extent_var(func: &str, dim: &str) -> String {
    format!("{func}.{dim}.extent")
}

/// The symbolic region a function is realized over: one [`Range`] per pure
/// dimension, referencing the `<func>.<dim>.min` / `<func>.<dim>.extent`
/// names. For the output function those symbols are bound by the executor
/// from the output buffer supplied at realization time; for every other
/// function, injection emits `LetStmt`s binding them to the inferred region.
pub fn symbolic_region(func: &FuncDef) -> Vec<Range> {
    func.args
        .iter()
        .map(|a| {
            Range::new(
                Expr::var_i32(bound_min_var(&func.name, a)),
                Expr::var_i32(bound_extent_var(&func.name, a)),
            )
        })
        .collect()
}

/// Wraps `body` in `LetStmt`s binding `func`'s `<func>.<dim>.min` /
/// `<func>.<dim>.extent` names to the given concrete region.
fn bind_region_lets(func: &FuncDef, region: &[Range], body: Stmt) -> Stmt {
    let mut s = body;
    for (arg, r) in func.args.iter().zip(region.iter()).rev() {
        s = Stmt::let_stmt(
            bound_extent_var(&func.name, arg),
            simplify(&r.extent),
            Stmt::let_stmt(bound_min_var(&func.name, arg), simplify(&r.min), s),
        );
    }
    s
}

/// Splits a statement into its leading chain of `LetStmt`s and the rest.
///
/// At every injection site the leading lets are the bounds bindings of
/// already-injected (consumer-side) realizations. A new producer's bounds
/// are inferred over the *rest only*, so those names stay symbolic in the
/// result — each stage's bounds reference the next stage's names instead of
/// re-embedding its whole interval expressions, which is what keeps both
/// the lowered statement and inference time linear in pipeline depth. The
/// new realization is then spliced *inside* the peeled chain (see
/// [`rewrap_lets`]) so every name its bounds mention is in scope.
fn peel_leading_lets(s: &Stmt) -> (Vec<(String, Expr)>, Stmt) {
    let mut lets = Vec::new();
    let mut cur = s.clone();
    while let StmtNode::LetStmt { name, value, body } = cur.node() {
        lets.push((name.clone(), value.clone()));
        let next = body.clone();
        cur = next;
    }
    (lets, cur)
}

/// Re-nests `body` under a let chain produced by [`peel_leading_lets`].
fn rewrap_lets(lets: &[(String, Expr)], body: Stmt) -> Stmt {
    lets.iter()
        .rev()
        .fold(body, |b, (n, v)| Stmt::let_stmt(n.clone(), v.clone(), b))
}

/// Rewrites the first `For` loop named `target`, replacing its body with
/// `f(body)`. Returns the rewritten statement and whether the loop was found.
fn transform_loop_body(stmt: &Stmt, target: &str, f: &mut dyn FnMut(Stmt) -> Stmt) -> (Stmt, bool) {
    struct Finder<'a> {
        target: &'a str,
        f: &'a mut dyn FnMut(Stmt) -> Stmt,
        found: bool,
    }
    impl IrMutator for Finder<'_> {
        fn mutate_stmt(&mut self, s: &Stmt) -> Stmt {
            if self.found {
                return s.clone();
            }
            if let StmtNode::For {
                name,
                min,
                extent,
                kind,
                body,
            } = s.node()
            {
                if name == self.target {
                    self.found = true;
                    let new_body = (self.f)(body.clone());
                    return Stmt::for_loop(
                        name.clone(),
                        min.clone(),
                        extent.clone(),
                        *kind,
                        new_body,
                    );
                }
            }
            halide_ir::mutate_stmt_children(self, s)
        }
    }
    let mut finder = Finder {
        target,
        f,
        found: false,
    };
    let out = finder.mutate_stmt(stmt);
    (out, finder.found)
}

/// Extracts (a clone of) the body of the first `For` loop named `target`.
fn loop_body(stmt: &Stmt, target: &str) -> Option<Stmt> {
    let mut result: Option<Stmt> = None;
    let (_, found) = transform_loop_body(stmt, target, &mut |body| {
        result = Some(body.clone());
        body
    });
    if found {
        result
    } else {
        None
    }
}

fn level_loop_name(env: &BTreeMap<String, FuncDef>, level: &LoopLevel) -> Result<Option<String>> {
    match level {
        LoopLevel::Root => Ok(None),
        LoopLevel::Inline => Err(LowerError::new(
            "inline functions are substituted before injection".to_string(),
        )),
        LoopLevel::At { func, var } => {
            let consumer = env.get(func).ok_or_else(|| {
                LowerError::new(format!(
                    "compute_at/store_at references unknown function {func:?}"
                ))
            })?;
            if !consumer.schedule.has_dim(var) && !consumer.args.contains(var) {
                return Err(LowerError::new(format!(
                    "compute_at/store_at references loop {var:?} which is not a dimension of {func:?}"
                )));
            }
            // Vectorization replaces a loop variable by a ramp everywhere in
            // the loop's body, so a realization there would get vector
            // bounds: its loops and allocation would have no scalar extent.
            // Unrolling substitutes scalars and stays legal.
            let dims = &consumer.schedule.dims;
            let enclosing = consumer
                .schedule
                .dim_index(var)
                .map_or(&[][..], |i| &dims[..=i]);
            if let Some(v) = enclosing.iter().find(|d| d.kind == ForKind::Vectorized) {
                return Err(LowerError::new(format!(
                    "compute_at/store_at {func}.{var} is at or inside the vectorized loop \
                     {:?}; producers cannot be realized inside a vector",
                    v.name
                )));
            }
            Ok(Some(loop_var(func, var)))
        }
    }
}

/// Per-dimension allocation padding for split loops: how far past the
/// required extent the loop nest can store, whatever that extent is.
/// Padding the allocation by this much guarantees tail iterations can never
/// store outside it — shift-inwards tails when a required extent is smaller
/// than a split factor, and round_up tails whose last tile runs up to one
/// factor past the required region. It sizes allocations that serve many
/// compute regions; [`traversed_extent`] is exact for one region.
///
/// Walking the split chain *backwards*, `pad(d)` bounds the overrun of
/// dimension `d`'s traversal given the splits later applied to its halves
/// (an outer half re-split with `round_up` multiplies: each extra outer
/// iteration covers a whole factor of `d`). Partitioned tails
/// (`guard_with_if`/`predicate`) never overrun — their stores are confined
/// to the required region by construction — and their halves cannot be
/// re-split, so they reset the overrun to zero.
fn split_padding(func: &FuncDef) -> Vec<i64> {
    use halide_schedule::TailStrategy;
    let mut pad: HashMap<&str, i64> = HashMap::new();
    for s in func.schedule.splits.iter().rev() {
        let po = pad.get(s.outer.as_str()).copied().unwrap_or(0);
        let pi = pad.get(s.inner.as_str()).copied().unwrap_or(0);
        let p = match s.tail {
            // old = min(outer*f, max(e-f, 0)) + inner: the min clamps any
            // outer overrun; a required extent smaller than the factor
            // still reaches f-1, plus whatever the inner's splits add.
            TailStrategy::ShiftInwards => (s.factor - 1) + pi,
            // old = outer*f + inner with outer < ceil(e/f) + po.
            TailStrategy::RoundUp => (s.factor - 1) + po * s.factor + pi,
            TailStrategy::GuardWithIf | TailStrategy::Predicate => 0,
        };
        pad.insert(s.old.as_str(), p);
    }
    func.args
        .iter()
        .map(|a| pad.get(a.as_str()).copied().unwrap_or(0))
        .collect()
}

/// `region` (one range per pure argument of `func`) with every dimension
/// whose first split shifts inwards grown to at least one split factor:
/// Halide's `ShiftInwards` semantics for a function the pipeline realizes
/// itself. The grown region is what the nest computes — the last vector
/// starts at `extent - factor`, never before the region's min — and what its
/// producers are asked for, so a narrow pyramid level costs one vector
/// instead of padding every level below it. The output is not grown: its
/// buffer is the caller's, so lowering asserts `extent >= factor` instead.
fn grow_to_split_factors(func: &FuncDef, region: &[Range]) -> Vec<Range> {
    func.args
        .iter()
        .zip(region)
        .map(
            |(arg, r)| match func.schedule.splits.iter().find(|s| s.old == *arg) {
                Some(s) if s.tail == halide_schedule::TailStrategy::ShiftInwards => Range::new(
                    r.min.clone(),
                    Expr::max(r.extent.clone(), Expr::int(s.factor as i32)),
                ),
                _ => r.clone(),
            },
        )
        .collect()
}

/// The extent `func`'s loop nest traverses along dimension `dim` when the
/// region it computes there is `extent` wide, counting only the splits from
/// position `from` on (a split's inner half may reuse its old name).
///
/// This is exact where [`split_padding`] is a constant bound: a shift-inwards
/// split traverses `max(extent, factor)` (plus its inner half's overrun), a
/// round_up split whole tiles, and a partitioned split exactly `extent`. At
/// `from == 0` the extent is the region as bound, already grown to one factor
/// by [`grow_to_split_factors`], so a shift-inwards split there traverses
/// exactly it. It holds only for the region the nest is built over, so it
/// sizes an allocation only when the function is stored where it is computed.
fn traversed_extent(func: &FuncDef, dim: &str, from: usize, extent: Expr) -> Expr {
    use halide_schedule::TailStrategy;
    let splits = &func.schedule.splits;
    let Some((i, s)) = splits
        .iter()
        .enumerate()
        .skip(from)
        .find(|(_, s)| s.old == dim)
    else {
        return extent;
    };
    let factor = Expr::int(s.factor as i32);
    let inner = traversed_extent(func, &s.inner, i + 1, factor.clone());
    match s.tail {
        // old = min(outer*f, e-f) + inner over a region grown to e >= f.
        TailStrategy::ShiftInwards if from == 0 => extent - factor + inner,
        // old = min(outer*f, max(e-f, 0)) + inner.
        TailStrategy::ShiftInwards => Expr::max(extent, factor.clone()) - factor + inner,
        // old = outer*f + inner over whole tiles of the outer half.
        TailStrategy::RoundUp => {
            let tiles = (extent + (factor.clone() - 1)) / factor.clone();
            let outer = traversed_extent(func, &s.outer, i + 1, tiles);
            (outer - 1) * factor + inner
        }
        TailStrategy::GuardWithIf | TailStrategy::Predicate => extent,
    }
}

/// Builds the complete (pre-flattening) statement for a pipeline: the output
/// function's loop nest with every producer's storage and computation
/// injected at its scheduled loop levels, and every realization's bounds
/// bound to `<func>.<dim>.min` / `<func>.<dim>.extent` lets that the loop
/// nests and `Realize` nodes reference by name.
///
/// # Errors
///
/// Fails when a schedule is globally inconsistent: unknown loop levels,
/// compute levels that do not enclose every consumer, or regions whose bounds
/// cannot be inferred.
pub fn build_pipeline_stmt(
    env: &BTreeMap<String, FuncDef>,
    order: &[String],
    output: &str,
) -> Result<Stmt> {
    let out_def = env
        .get(output)
        .ok_or_else(|| LowerError::new(format!("unknown output function {output:?}")))?;
    // Nothing encloses the output, so a compute level there would be ignored.
    if !out_def.schedule.compute_level.is_root() {
        return Err(LowerError::new(format!(
            "the output function {output:?} is computed at {}; it must be computed at root",
            out_def.schedule.compute_level
        ))
        .in_func(output));
    }
    let mut stmt = build_produce_nest(out_def, &symbolic_region(out_def))?;

    // The output buffer is supplied by the caller and cannot be padded, so
    // the shift-inwards tail strategy requires each split dimension of the
    // output to be at least one split factor wide. Check it at run time.
    // The guard_with_if/predicate strategies handle any extent (that is
    // their purpose), so their splits are exempt.
    let mut guards = Vec::new();
    for split in &out_def.schedule.splits {
        if split.tail == halide_schedule::TailStrategy::RoundUp {
            // Rounding up traverses (and stores) past the required region
            // into the allocation's padding — but the output buffer is
            // caller-allocated and exact, so there is no padding to run into.
            return Err(LowerError::new(format!(
                "split of {:?} in the output function {} uses tail strategy round_up, \
                 which stores past the caller-allocated output buffer; use \
                 guard_with_if or predicate on the output",
                split.old, out_def.name
            ))
            .in_func(&out_def.name)
            .in_dim(&split.old));
        }
        if split.tail != halide_schedule::TailStrategy::ShiftInwards {
            continue;
        }
        if out_def.args.contains(&split.old) {
            let extent = Expr::var_i32(format!("{}.{}.extent", out_def.name, split.old));
            guards.push(Stmt::assert_stmt(
                Expr::ge(extent, Expr::int(split.factor as i32)),
                format!(
                    "output dimension {:?} of {} must be at least {} wide for this schedule",
                    split.old, out_def.name, split.factor
                ),
            ));
        }
    }
    if !guards.is_empty() {
        guards.push(stmt);
        stmt = Stmt::block_of(guards);
    }

    // Inject every non-output, non-inline function, consumers before
    // producers (reverse realization order, skipping the output itself).
    for name in order.iter().rev() {
        if name == output {
            continue;
        }
        let def = &env[name];
        if def.schedule.compute_level.is_inline() {
            continue;
        }

        let level_loop = |level| level_loop_name(env, level).map_err(|e| e.in_func(&def.name));
        let compute_loop = level_loop(&def.schedule.compute_level)?;
        let store_loop = level_loop(&def.schedule.store_level)?;

        // Region required at the compute level. The leading lets of the
        // compute body — bounds bindings of already-injected realizations —
        // are peeled off before analysis so their names stay symbolic in the
        // inferred region.
        let compute_body = match &compute_loop {
            None => stmt.clone(),
            Some(l) => loop_body(&stmt, l).ok_or_else(|| {
                LowerError::new(format!(
                    "{}: compute_at loop {l:?} does not exist in the current loop nest",
                    def.name
                ))
                .in_func(&def.name)
            })?,
        };
        let (_, compute_body) = peel_leading_lets(&compute_body);
        let total_calls = count_calls(&stmt, &def.name);
        if total_calls == 0 {
            // Dead stage: every consumer was inlined away or it is never used.
            continue;
        }
        let calls_inside = count_calls(&compute_body, &def.name);
        if calls_inside < total_calls {
            return Err(LowerError::new(format!(
                "{}: compute level {} does not enclose all of its consumers",
                def.name, def.schedule.compute_level
            ))
            .in_func(&def.name));
        }
        let required = region_required(&compute_body, &def.name, def.args.len())
            .to_ranges(&def.name, &def.args)?;
        let compute_region = grow_to_split_factors(def, &required);
        validate_splits(def, &compute_region)?;

        // Region required at the (equal or coarser) storage level. When the
        // two levels coincide, it is the compute region.
        let same_level = store_loop == compute_loop;
        let store_region = if same_level {
            compute_region.clone()
        } else {
            let store_body = match &store_loop {
                None => stmt.clone(),
                Some(l) => loop_body(&stmt, l).ok_or_else(|| {
                    LowerError::new(format!(
                        "{}: store_at loop {l:?} does not exist in the current loop nest",
                        def.name
                    ))
                    .in_func(&def.name)
                })?,
            };
            // The realization must wrap the produce, so the storage loop
            // has to enclose the compute loop, not sit inside it.
            if let Some(c) = &compute_loop {
                if loop_body(&store_body, c).is_none() {
                    return Err(LowerError::new(format!(
                        "{}: store level {} does not enclose its compute level {}",
                        def.name, def.schedule.store_level, def.schedule.compute_level
                    ))
                    .in_func(&def.name));
                }
            }
            let (_, store_body) = peel_leading_lets(&store_body);
            let calls_in_store = count_calls(&store_body, &def.name);
            if calls_in_store < total_calls {
                return Err(LowerError::new(format!(
                    "{}: store level {} does not enclose all of its consumers",
                    def.name, def.schedule.store_level
                ))
                .in_func(&def.name));
            }
            region_required(&store_body, &def.name, def.args.len())
                .to_ranges(&def.name, &def.args)?
        };

        // The Realize covers the symbolic region, grown per dimension so
        // split tails can never store outside the allocation: to exactly what
        // the nest traverses when it is stored where it is computed, by the
        // constant worst case when one realization serves many computes.
        let sym_region = symbolic_region(def);
        let realize_bounds: Vec<Range> = sym_region
            .iter()
            .zip(&def.args)
            .zip(split_padding(def))
            .map(|((r, arg), pad)| {
                if pad == 0 {
                    r.clone()
                } else if same_level {
                    let extent = traversed_extent(def, arg, 0, r.extent.clone());
                    Range::new(r.min.clone(), simplify(&extent))
                } else {
                    Range::new(r.min.clone(), r.extent.clone() + Expr::int(pad as i32))
                }
            })
            .collect();

        // Build the producer nest over the symbolic region and inject it at
        // the compute level. When the compute level is strictly inside the
        // storage level, the per-iteration compute region is bound right
        // there, shadowing the storage-level bindings of the same names.
        let mut produce = build_produce_nest(def, &sym_region)?;
        if !same_level {
            produce = bind_region_lets(def, &compute_region, produce);
        }
        let inject_produce = &mut |body: Stmt| {
            let (lets, rest) = peel_leading_lets(&body);
            rewrap_lets(&lets, Stmt::block(produce.clone(), rest))
        };
        stmt = match &compute_loop {
            None => inject_produce(stmt),
            Some(l) => {
                let (new_stmt, found) = transform_loop_body(&stmt, l, inject_produce);
                debug_assert!(
                    found,
                    "compute loop vanished between analysis and injection"
                );
                new_stmt
            }
        };

        // Wrap the storage level in a Realize, itself wrapped in the lets
        // binding the storage region to the names the Realize references.
        // Both are spliced *inside* the level's existing leading lets, so
        // this realization's bounds may reference the bound names of every
        // realization injected before it (its consumers).
        let ty = def.ty;
        let fname = def.name.clone();
        let wrap_realize = &mut |body: Stmt| {
            let (lets, rest) = peel_leading_lets(&body);
            rewrap_lets(
                &lets,
                bind_region_lets(
                    def,
                    &store_region,
                    Stmt::realize(fname.clone(), ty, realize_bounds.clone(), rest),
                ),
            )
        };
        stmt = match &store_loop {
            None => wrap_realize(stmt),
            Some(l) => {
                let (new_stmt, found) = transform_loop_body(&stmt, l, wrap_realize);
                debug_assert!(found, "store loop vanished between analysis and injection");
                new_stmt
            }
        };
    }

    Ok(simplify_stmt(&stmt))
}

#[cfg(test)]
mod tests {
    use super::*;
    use halide_ir::{IrVisitor, Type};
    use halide_lang::{Func, ImageParam, Pipeline, Var};

    fn blur_pipeline(prefix: &str) -> (Pipeline, String, String) {
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
        let blurx_name = blurx.name();
        let out_name = out.name();
        (Pipeline::new(&out), blurx_name, out_name)
    }

    fn contains_realize(s: &Stmt, name: &str) -> bool {
        s.to_string().contains(&format!("realize {name}"))
    }

    #[test]
    fn breadth_first_realizes_at_root() {
        let (p, blurx, out) = blur_pipeline("inject_bf");
        let env = snapshot_pipeline(&p);
        let order = p.realization_order();
        let stmt = build_pipeline_stmt(&env, &order, &out).unwrap();
        let text = stmt.to_string();
        assert!(contains_realize(&stmt, &blurx));
        // Realize must be outermost (before the out loops)
        let realize_pos = text.find("realize").unwrap();
        let out_loop_pos = text.find(&format!("for {out}.y")).unwrap();
        assert!(realize_pos < out_loop_pos);
        // The produced region of blurx extends one row above and below the output.
        assert!(text.contains(&format!("{blurx}.y.min")) || text.contains("- 1"));
    }

    #[test]
    fn inline_schedule_substitutes_definition() {
        let (p, blurx, out) = blur_pipeline("inject_inline");
        p.func(&blurx).unwrap().compute_inline();
        let mut env = snapshot_pipeline(&p);
        let order = p.realization_order();
        inline_all(&mut env, &order, &out).unwrap();
        let stmt = build_pipeline_stmt(&env, &order, &out).unwrap();
        let text = stmt.to_string();
        // no realization of blurx, and the input image is read directly from
        // the out loop nest
        assert!(!contains_realize(&stmt, &blurx));
        assert!(!text.contains(&format!("{blurx}(")));
        assert!(text.contains("inject_inline_in("));
    }

    #[test]
    fn compute_at_injects_inside_consumer_loop() {
        let (p, blurx, out) = blur_pipeline("inject_at");
        p.func(&blurx)
            .unwrap()
            .compute_at(p.func(&out).unwrap(), "y");
        let env = snapshot_pipeline(&p);
        let order = p.realization_order();
        let stmt = build_pipeline_stmt(&env, &order, &out).unwrap();
        let text = stmt.to_string();
        // The realize/produce of blurx must be nested inside the out.y loop.
        let y_loop = text.find(&format!("for {out}.y")).unwrap();
        let realize = text.find(&format!("realize {blurx}")).unwrap();
        assert!(realize > y_loop);
        // Its y extent per iteration is the 3-row stencil window.
        assert!(text.contains("3"));
    }

    #[test]
    fn compute_at_unknown_loop_is_error() {
        let (p, blurx, out) = blur_pipeline("inject_badloop");
        p.func(&blurx)
            .unwrap()
            .compute_at(p.func(&out).unwrap(), "nonexistent");
        let env = snapshot_pipeline(&p);
        let order = p.realization_order();
        assert!(build_pipeline_stmt(&env, &order, &out).is_err());
    }

    #[test]
    fn store_root_compute_inner_realizes_at_root() {
        let (p, blurx, out) = blur_pipeline("inject_slide");
        {
            let b = p.func(&blurx).unwrap();
            b.compute_at(p.func(&out).unwrap(), "y");
            b.store_root();
        }
        let env = snapshot_pipeline(&p);
        let order = p.realization_order();
        let stmt = build_pipeline_stmt(&env, &order, &out).unwrap();
        let text = stmt.to_string();
        let realize = text.find(&format!("realize {blurx}")).unwrap();
        let y_loop = text.find(&format!("for {out}.y")).unwrap();
        let produce = text.find(&format!("produce {blurx}")).unwrap();
        assert!(realize < y_loop, "storage hoisted outside the loop");
        assert!(produce > y_loop, "computation stays inside the loop");
    }

    #[test]
    fn split_and_parallel_schedule_lowers() {
        let (p, blurx, out) = blur_pipeline("inject_tiled");
        {
            let o = p.func(&out).unwrap();
            o.tile_dims("x", "y", "xo", "yo", "xi", "yi", 32, 32);
            o.parallelize("yo");
            let b = p.func(&blurx).unwrap();
            b.compute_at(o, "xo");
        }
        let env = snapshot_pipeline(&p);
        let order = p.realization_order();
        let stmt = build_pipeline_stmt(&env, &order, &out).unwrap();
        let text = stmt.to_string();
        assert!(text.contains(&format!("parallel for {out}.yo")));
        assert!(text.contains(&format!("realize {blurx}")));
        // blurx realize must be inside the xo loop
        let xo = text.find(&format!("for {out}.xo")).unwrap();
        let realize = text.find(&format!("realize {blurx}")).unwrap();
        assert!(realize > xo);
    }

    #[test]
    fn snapshot_captures_updates() {
        let i = Var::new("i");
        let f = Func::new("inject_snapshot_hist");
        f.define(std::slice::from_ref(&i), Expr::int(0));
        let r = halide_lang::RDom::over("r", 0, 8);
        f.update(vec![r.x().expr()], f.at(vec![r.x().expr()]) + 1, Some(r));
        let p = Pipeline::new(&f);
        let env = snapshot_pipeline(&p);
        let def = &env[&f.name()];
        assert_eq!(def.updates.len(), 1);
        assert_eq!(def.updates[0].rdom.as_ref().unwrap().dims.len(), 1);
        assert_eq!(def.ty, Type::i32());
    }

    /// `blurx`'s traversed x extent over a required region `extent` wide,
    /// once from [`traversed_extent`] over the region injection binds and
    /// once from the Realize that lowering emits for it (computed and stored
    /// at root), with `split` applied to it.
    fn traversed_and_realized(prefix: &str, split: impl Fn(&Func), extent: i64) -> (i64, i64) {
        let (p, blurx, out) = blur_pipeline(prefix);
        let f = p.func(&blurx).unwrap();
        f.compute_root();
        split(f);
        let env = snapshot_pipeline(&p);
        let required = vec![Range::new(Expr::int(0), Expr::int(extent as i32)); 2];
        let bound = grow_to_split_factors(&env[&blurx], &required);
        let traversed = simplify(&traversed_extent(
            &env[&blurx],
            "x",
            0,
            bound[0].extent.clone(),
        ));
        let stmt = build_pipeline_stmt(&env, &p.realization_order(), &out).unwrap();
        // The Realize's x extent, and the lets in scope there.
        struct FindRealize<'a>(&'a str, Option<Expr>, HashMap<String, Expr>);
        impl IrVisitor for FindRealize<'_> {
            fn visit_stmt(&mut self, s: &Stmt) {
                match s.node() {
                    StmtNode::Realize { name, bounds, .. } if name == self.0 => {
                        self.1 = Some(bounds[0].extent.clone());
                    }
                    StmtNode::LetStmt { name, value, .. } if self.1.is_none() => {
                        self.2.insert(name.clone(), value.clone());
                    }
                    _ => {}
                }
                halide_ir::visit_stmt_children(self, s);
            }
        }
        let mut find = FindRealize(&blurx, None, HashMap::new());
        find.visit_stmt(&stmt);
        // blurx's x region is the output's, which lowering may name instead.
        let mut lets = find.2;
        lets.insert(bound_extent_var(&out, "x"), Expr::int(extent as i32));
        let mut realized = find.1.expect("blurx is realized");
        for _ in 0..lets.len() {
            realized = halide_ir::substitute_map(&realized, &lets);
        }
        let realized = simplify(&realized);
        (
            traversed.as_const_int().expect("constant traversal"),
            realized.as_const_int().expect("constant realize extent"),
        )
    }

    #[test]
    fn allocation_is_exactly_what_the_split_nest_traverses() {
        use halide_schedule::TailStrategy;
        // Shifting inwards: a region narrower than the factor still runs one
        // whole vector; a wider one runs exactly its extent.
        let shift = |f: &Func| {
            f.split_dim("x", "xo", "xi", 8);
        };
        assert_eq!(traversed_and_realized("inject_tr_shift5", shift, 5), (8, 8));
        assert_eq!(
            traversed_and_realized("inject_tr_shift20", shift, 20),
            (20, 20)
        );
        // Rounding up with the outer half re-split by 3: 14 columns are 4
        // tiles of 4, and 4 outer tiles round up to 6, so 24 columns.
        let resplit = |f: &Func| {
            f.split_dim_tail("x", "xo", "xi", 4, TailStrategy::RoundUp)
                .split_dim_tail("xo", "xoo", "xoi", 3, TailStrategy::RoundUp);
        };
        assert_eq!(
            traversed_and_realized("inject_tr_resplit", resplit, 14),
            (24, 24)
        );
        // A predicated split never runs past the region.
        let predicate = |f: &Func| {
            f.split_dim_tail("x", "xo", "xi", 8, TailStrategy::Predicate);
        };
        assert_eq!(
            traversed_and_realized("inject_tr_pred", predicate, 5),
            (5, 5)
        );
    }

    #[test]
    fn shift_inwards_producer_grows_to_one_factor() {
        // Computed at root, blurx is required exactly the output's columns;
        // its region grows to one factor where that is narrower, so its last
        // vector shifts inwards with no clamp at the region's min, and it is
        // allocated exactly what it computes.
        let (p, blurx, out) = blur_pipeline("inject_grow");
        p.func(&blurx)
            .unwrap()
            .compute_root()
            .split_dim("x", "xo", "xi", 8);
        let text = crate::lower(&p).unwrap().pretty();
        assert!(
            text.contains(&format!("let {blurx}.x.extent = max({out}.x.extent, 8)")),
            "{text}"
        );
        assert!(
            text.contains(&format!(
                "let {blurx}.x = (({out}.x.min + min(({blurx}.xo*8), ({blurx}.x.extent - 8))) + {blurx}.xi)"
            )),
            "{text}"
        );
        assert!(
            text.contains(&format!("allocate {blurx}[float32 * ({blurx}.x.extent*")),
            "{text}"
        );
        assert!(!text.contains(", 0))"), "{text}");
    }

    #[test]
    fn shift_inwards_consumer_hands_its_producer_a_closed_form_region() {
        // The output's last tile shifts inwards over its own columns (it
        // asserts it is one factor wide), so blurx is required exactly those
        // columns — not `min(((e + 7)/8 - 1)*8, e - 8) + 8` of them.
        let (p, blurx, out) = blur_pipeline("inject_closed");
        p.func(&out).unwrap().split_dim("x", "xo", "xi", 8);
        p.func(&blurx).unwrap().compute_root();
        let text = crate::lower(&p).unwrap().pretty();
        assert!(
            text.contains(&format!(
                "for {blurx}.x in [{out}.x.min, {out}.x.min + {out}.x.extent)"
            )),
            "{text}"
        );
        assert!(!text.contains("+ 7)/8) - 1)*8)"), "{text}");
        assert!(!text.contains(", 0))"), "{text}");
    }
}
