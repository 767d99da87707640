//! Update stages: scheduling a function's update definitions, and
//! factoring an associative reduction with [`Stage::rfactor`].
//!
//! Each update of a [`Func`] has its own domain order
//! ([`StageSchedule`]), over the pure variables its coordinates use and the
//! variables of its reduction domain (`r.x`). The verbs here record
//! transformations of it; lowering decides whether they keep the update's
//! result (a pure variable may be vectorized or parallelized only if the
//! update's points along it are independent, and a reduction variable may
//! be split and unrolled but not reordered, vectorized or parallelized).

use halide_ir::{BinOp, CallType, Expr, ExprNode, ForKind, Type};
use halide_schedule::{RFactor, StageSchedule, TailStrategy};

use crate::func::{Func, UpdateDef};
use crate::pipeline::called_funcs;
use crate::rdom::{RDom, RVar};
use crate::var::Var;

/// A handle on one update definition of a [`Func`], for scheduling it.
/// Obtained from [`Func::update_stage`]; clones of the function share the
/// stage's schedule.
#[derive(Debug, Clone)]
pub struct Stage {
    func: Func,
    index: usize,
}

impl Stage {
    pub(crate) fn new(func: Func, index: usize) -> Self {
        Stage { func, index }
    }

    fn update_def(&self) -> UpdateDef {
        self.func.with_inner(|f| f.updates[self.index].clone())
    }

    /// A copy of the stage's schedule.
    pub fn schedule(&self) -> StageSchedule {
        self.update_def().schedule
    }

    /// Replaces the stage's schedule wholesale (used by the fuzzer to
    /// apply a case's directives). The schedule of an `rfactor`
    /// intermediate's update carries the split that defines the factored
    /// variable; replacing it drops that definition.
    pub fn set_schedule(&self, schedule: StageSchedule) {
        self.func
            .with_inner(|f| f.updates[self.index].schedule = schedule);
    }

    fn edit(&self, op: impl FnOnce(&mut StageSchedule) -> halide_schedule::Result<()>) -> &Self {
        let name = self.func.name();
        let result = self
            .func
            .with_inner(|f| op(&mut f.updates[self.index].schedule));
        if let Err(e) = result {
            panic!("scheduling {name} update {}: {e}", self.index);
        }
        self
    }

    /// Splits dimension `old` (a pure variable or a reduction variable)
    /// into `outer`/`inner`, guarding the tail with an `if`
    /// ([`TailStrategy::GuardWithIf`]), the only kind of tail that neither
    /// repeats nor overruns an update.
    ///
    /// # Panics
    ///
    /// Panics if the split is invalid (unknown dimension, bad factor, name
    /// collision).
    pub fn split_dim(&self, old: &str, outer: &str, inner: &str, factor: i64) -> &Self {
        self.split_dim_tail(old, outer, inner, factor, TailStrategy::GuardWithIf)
    }

    /// Splits dimension `old` with an explicit tail strategy. Lowering
    /// accepts `GuardWithIf` and `Predicate` on an update stage.
    ///
    /// # Panics
    ///
    /// Panics if the split is invalid (unknown dimension, bad factor, name
    /// collision).
    pub fn split_dim_tail(
        &self,
        old: &str,
        outer: &str,
        inner: &str,
        factor: i64,
        tail: TailStrategy,
    ) -> &Self {
        self.edit(|s| s.split_with_tail(old, outer, inner, factor, tail))
    }

    /// Reorders dimensions; `order` is outermost-first.
    ///
    /// # Panics
    ///
    /// Panics if a named dimension does not exist or repeats.
    pub fn reorder_dims(&self, order: &[&str]) -> &Self {
        self.edit(|s| s.reorder(order))
    }

    /// Marks a dimension parallel.
    ///
    /// # Panics
    ///
    /// Panics if the dimension does not exist.
    pub fn parallelize(&self, dim: &str) -> &Self {
        self.edit(|s| s.set_kind(dim, ForKind::Parallel))
    }

    /// Marks a dimension vectorized.
    ///
    /// # Panics
    ///
    /// Panics if the dimension does not exist.
    pub fn vectorize_dim(&self, dim: &str) -> &Self {
        self.edit(|s| s.set_kind(dim, ForKind::Vectorized))
    }

    /// Marks a dimension unrolled.
    ///
    /// # Panics
    ///
    /// Panics if the dimension does not exist.
    pub fn unroll_dim(&self, dim: &str) -> &Self {
        self.edit(|s| s.set_kind(dim, ForKind::Unrolled))
    }

    /// Factors the reduction over `rvar` out into an intermediate function,
    /// as in Halide (Suriana, Adams and Kamil, CGO 2017), and returns it.
    ///
    /// For an update `f(a) = f(a) op e` over a domain containing `rvar`, the
    /// intermediate is `intm(args…, u)` with `u = pure_var`:
    ///
    /// * its pure definition is the identity of `op`,
    /// * its update is `intm(a, u) = intm(a, u) op e` over the remaining
    ///   reduction variables, with `rvar` replaced by the pure `u`,
    /// * and this stage becomes the merge `f(a) = f(a) op intm(a, rvar)`
    ///   over `rvar`'s range, with a default schedule.
    ///
    /// The intermediate's update keeps this stage's schedule, with `u` in
    /// `rvar`'s place. `rvar` may be a reduction variable of the domain or
    /// the inner half of a split of one; then `u` is that split's inner
    /// half, and the split (with its guarded tail) defines `r.x` from it.
    ///
    /// The intermediate is named `{f}_intm`: a second `rfactor` of the same
    /// function gives a second function of that name, which
    /// [`Pipeline::new`](crate::Pipeline::new) rejects.
    ///
    /// Only integer `+`, `min` and `max` are reassociated exactly; lowering
    /// rejects a factored float reduction, and an update of another shape
    /// (which is left unchanged here) with a typed error.
    ///
    /// # Panics
    ///
    /// Panics if the update has no reduction domain, `rvar` is not one of
    /// its reduction variables (or the inner half of a split of one, not
    /// split further), or `pure_var` names an existing dimension.
    pub fn rfactor(&self, rvar: &str, pure_var: &str) -> Func {
        let (fname, args, pure_value) = self
            .func
            .with_inner(|f| (f.name.clone(), f.args.clone(), f.value.clone()));
        let pure_value = pure_value.unwrap_or_else(|| panic!("function {fname} is not defined"));
        let update = self.update_def();
        let fail = |msg: &str| -> ! {
            panic!(
                "scheduling {fname} update {}: rfactor({rvar:?}, {pure_var:?}): {msg}",
                self.index
            )
        };
        let Some(rdom) = update.rdom.clone() else {
            fail("the update has no reduction domain")
        };
        if args.iter().any(|a| a == pure_var) || update.schedule.dim_index(pure_var).is_some() {
            fail("the new pure variable collides with an existing dimension");
        }
        if update.schedule.dim_index(rvar).is_none()
            || update.schedule.splits.iter().any(|s| s.old == rvar)
        {
            fail("it is not a loop of the stage, or it was split further");
        }
        let is_rvar = |name: &str| rdom.dims().iter().any(|d| d.name() == name);
        // The merge iterates over the factored variable's own range.
        let (merged, unsplit) = if let Some(rv) = rdom.dims().iter().find(|d| d.name() == rvar) {
            (rv.clone(), true)
        } else {
            let split = update.schedule.splits.iter().find(|s| s.inner == rvar);
            let mut root = split.map(|s| s.old.clone());
            while let Some(old) = root.clone().filter(|o| !is_rvar(o)) {
                root = update
                    .schedule
                    .splits
                    .iter()
                    .find(|s| s.inner == old || s.outer == old)
                    .map(|s| s.old.clone());
            }
            match (split, root) {
                (Some(s), Some(_)) => (
                    RVar::new(rvar, Expr::int(0), Expr::int(s.factor as i32)),
                    false,
                ),
                _ => fail("it is not a reduction variable of the update"),
            }
        };

        let intm = Func::new(format!("{fname}_intm"));
        let mut intm_args = args.clone();
        intm_args.push(pure_var.to_string());
        let vars: Vec<Var> = intm_args.iter().map(Var::new).collect();
        let record = RFactor {
            rvar: rvar.to_string(),
            pure_var: pure_var.to_string(),
            intm: intm.name(),
        };
        let Some((op, e)) = reduction_of(&fname, &update) else {
            // Not `f(a) = f(a) op e`: nothing to factor. The request stays
            // on the stage, for lowering to reject.
            intm.define(&vars, pure_value);
            self.edit(|s| {
                s.rfactor = Some(record);
                Ok(())
            });
            return intm;
        };
        intm.define(&vars, identity(op, pure_value.ty()));

        // The intermediate's update: `rvar` becomes the pure `u`.
        let u = Expr::var_i32(pure_var);
        let lift = |ex: &Expr| {
            if unsplit {
                halide_ir::substitute(ex, rvar, &u)
            } else {
                ex.clone()
            }
        };
        let mut coords: Vec<Expr> = update.args.iter().map(lift).collect();
        coords.push(u.clone());
        let value = combine(op, intm.at(coords.clone()), lift(&e));
        let remaining: Vec<RVar> = rdom
            .dims()
            .iter()
            .filter(|d| !unsplit || d.name() != rvar)
            .cloned()
            .collect();
        let intm_rdom = (!remaining.is_empty()).then(|| RDom::from_rvars(rdom.name(), remaining));
        intm.update(coords, value, intm_rdom);
        let rename = |n: &mut String| {
            if n == rvar {
                *n = pure_var.to_string();
            }
        };
        let mut schedule = update.schedule.clone();
        schedule.dims.iter_mut().for_each(|d| rename(&mut d.name));
        schedule
            .splits
            .iter_mut()
            .for_each(|s| rename(&mut s.inner));
        intm.update_stage(0).set_schedule(schedule);

        // This stage becomes the merge over `rvar`.
        let pure: Vec<Expr> = args.iter().map(Expr::var_i32).collect();
        let mut partial = pure.clone();
        partial.push(merged.expr());
        let merge = UpdateDef {
            args: pure.clone(),
            value: self.func.without_self_handles(&combine(
                op,
                self.func.at(pure),
                intm.at(partial),
            )),
            rdom: Some(RDom::from_rvars(rvar, vec![merged])),
            schedule: StageSchedule::default_for(&args, &[rvar.to_string()]),
        };
        self.func.with_inner(|f| {
            let stage = &mut f.updates[self.index];
            *stage = merge;
            stage.schedule.rfactor = Some(record);
        });
        intm
    }
}

/// Splits an update `f(a) = f(a) op e` (or `e op f(a)`) with `op` one of
/// `+`, `min`, `max` and `e` not reading `f` into `(op, e)`.
fn reduction_of(fname: &str, update: &UpdateDef) -> Option<(BinOp, Expr)> {
    let ExprNode::Bin { op, a, b } = update.value.node() else {
        return None;
    };
    if !matches!(op, BinOp::Add | BinOp::Min | BinOp::Max) {
        return None;
    }
    let is_self = |x: &Expr| {
        matches!(x.node(), ExprNode::Call { name, call_type: CallType::Halide, args, .. }
            if name == fname && *args == update.args)
    };
    let e = if is_self(a) {
        b
    } else if is_self(b) {
        a
    } else {
        return None;
    };
    (!called_funcs(e).contains(fname)).then(|| (*op, e.clone()))
}

fn combine(op: BinOp, a: Expr, b: Expr) -> Expr {
    match op {
        BinOp::Add => a + b,
        BinOp::Min => Expr::min(a, b),
        BinOp::Max => Expr::max(a, b),
        _ => unreachable!("reduction_of admits only +, min and max"),
    }
}

/// The value `x` with `x op v = v` for every `v` of type `ty`.
fn identity(op: BinOp, ty: Type) -> Expr {
    match op {
        BinOp::Add => Expr::zero(ty),
        BinOp::Min => Expr::imm_of(ty, ty.scalar().max_value_f64()),
        BinOp::Max => Expr::imm_of(ty, ty.scalar().min_value_f64()),
        _ => unreachable!("reduction_of admits only +, min and max"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dim_names(s: &StageSchedule) -> Vec<String> {
        s.dims.iter().map(|d| d.name.clone()).collect()
    }

    /// `h(i) = 0; h(clamp(in(r.x, r.y))) += 1` over a 10x4 domain.
    fn histogram(name: &str) -> (Func, RDom) {
        let input = crate::ImageParam::new(format!("{name}_in"), Type::i32(), 2);
        let h = Func::new(name);
        h.define(&[Var::new("i")], Expr::int(0));
        let r = RDom::new(
            "r",
            vec![(Expr::int(0), Expr::int(10)), (Expr::int(0), Expr::int(4))],
        );
        let b = input
            .at(vec![r.x().expr(), r.y().expr()])
            .clamp(Expr::int(0), Expr::int(7));
        h.update(vec![b.clone()], h.at(vec![b]) + 1, Some(r.clone()));
        (h, r)
    }

    #[test]
    fn update_stage_defaults_and_verbs() {
        let (h, _) = histogram("stage_test_verbs");
        let s = h.update_stage(0);
        // The coordinate does not use `i`, so only the domain loops.
        assert_eq!(dim_names(&s.schedule()), vec!["r.y", "r.x"]);
        s.split_dim("r.x", "rxo", "rxi", 4).unroll_dim("rxi");
        let sched = s.schedule();
        assert_eq!(dim_names(&sched), vec!["r.y", "rxo", "rxi"]);
        assert_eq!(sched.splits[0].tail, TailStrategy::GuardWithIf);
        assert_eq!(sched.dims[2].kind, ForKind::Unrolled);
        // The pure definition's schedule is untouched.
        assert_eq!(h.schedule().dims.len(), 1);
    }

    #[test]
    #[should_panic(expected = "no update 1")]
    fn missing_update_stage_panics() {
        let (h, _) = histogram("stage_test_missing");
        h.update_stage(1);
    }

    #[test]
    fn rfactor_of_a_split_rvar_builds_intermediate_and_merge() {
        let (h, _) = histogram("stage_test_rf_split");
        let s = h.update_stage(0);
        s.split_dim("r.x", "rxo", "rxi", 4);
        let intm = s.rfactor("rxi", "u");
        assert_eq!(intm.args(), vec!["i".to_string(), "u".to_string()]);
        assert_eq!(intm.value(), Expr::int(0));
        let iu = &intm.updates()[0];
        // The split stays, with `u` as its inner half.
        assert_eq!(dim_names(&iu.schedule), vec!["r.y", "rxo", "u"]);
        assert_eq!(iu.schedule.splits[0].inner, "u");
        assert_eq!(iu.rdom.as_ref().unwrap().dims().len(), 2);
        let merge = &h.updates()[0];
        assert_eq!(merge.rdom.as_ref().unwrap().x().name(), "rxi");
        assert_eq!(merge.rdom.as_ref().unwrap().x().extent(), &Expr::int(4));
        assert_eq!(dim_names(&merge.schedule), vec!["i", "rxi"]);
        assert_eq!(
            merge.value.to_string(),
            format!("({0}(i) + {1}(i, rxi))", h.name(), intm.name())
        );
        assert_eq!(merge.schedule.rfactor.as_ref().unwrap().intm, intm.name());
    }

    #[test]
    fn rfactor_of_a_domain_rvar_substitutes_it() {
        let (h, _) = histogram("stage_test_rf_whole");
        let intm = h.update_stage(0).rfactor("r.y", "v");
        let iu = &intm.updates()[0];
        assert_eq!(iu.rdom.as_ref().unwrap().dims().len(), 1);
        assert!(iu.value.to_string().contains("(r.x, v)"), "{}", iu.value);
        assert_eq!(dim_names(&iu.schedule), vec!["v", "r.x"]);
        assert_eq!(
            h.updates()[0].rdom.as_ref().unwrap().x().extent(),
            &Expr::int(4)
        );
    }

    #[test]
    fn rfactor_of_another_shape_is_only_recorded() {
        let x = Var::new("x");
        let f = Func::new("stage_test_rf_affine");
        f.define(std::slice::from_ref(&x), Expr::int(1));
        let r = RDom::over("r", 0, 4);
        f.update(
            vec![x.expr()],
            f.at(vec![x.expr()]) * 2 + r.x().expr(),
            Some(r),
        );
        let before = f.updates()[0].value.clone();
        f.update_stage(0).rfactor("r.x", "u");
        let after = &f.updates()[0];
        assert_eq!(after.value, before);
        assert!(after.schedule.rfactor.is_some());
    }

    #[test]
    #[should_panic(expected = "not a loop of the stage")]
    fn rfactor_of_a_pure_var_panics() {
        let (h, _) = histogram("stage_test_rf_bad");
        h.update_stage(0).rfactor("i", "u");
    }

    #[test]
    fn identities() {
        assert_eq!(identity(BinOp::Add, Type::i32()), Expr::int(0));
        assert_eq!(identity(BinOp::Min, Type::i32()), Expr::int(i32::MAX));
        assert_eq!(identity(BinOp::Max, Type::i32()), Expr::int(i32::MIN));
    }
}
