//! Halide functions: the stages of an image-processing pipeline.
//!
//! A [`Func`] is a pure function from integer coordinates to a value (Sec. 2),
//! optionally extended with update definitions over a reduction domain. The
//! `Func` also carries its schedule (Sec. 3), which the scheduling methods
//! here manipulate; the algorithm definition itself is never affected by
//! scheduling.

use std::sync::{Arc, Mutex};

use halide_ir::{CallType, Expr, ExprNode, FuncRef, IrMutator, Type};
use halide_schedule::{FuncSchedule, LoopLevel, StageSchedule};

use crate::rdom::RDom;
use crate::stage::Stage;
use crate::var::Var;

/// One update (reduction) definition of a function.
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateDef {
    /// Output coordinate expressions (may reference reduction variables and
    /// the pure variables listed in the function's signature).
    pub args: Vec<Expr>,
    /// The new value stored at those coordinates (may recursively reference
    /// the function itself).
    pub value: Expr,
    /// The reduction domain the update iterates over, if any.
    pub rdom: Option<RDom>,
    /// The update stage's own domain order (see [`Func::update_stage`]).
    pub schedule: StageSchedule,
}

/// The pure arguments (of `args`) an update with coordinates `coords`
/// loops over: those whose own coordinate mentions them. A pure argument
/// whose coordinate does not mention it is not looped (the update touches
/// a lower-dimensional slice).
pub fn looped_args(args: &[String], coords: &[Expr]) -> Vec<String> {
    args.iter()
        .zip(coords)
        .filter(|(a, coord)| halide_ir::expr_uses_var(coord, a))
        .map(|(a, _)| a.clone())
        .collect()
}

#[derive(Debug)]
pub(crate) struct FuncInner {
    pub(crate) name: String,
    pub(crate) args: Vec<String>,
    pub(crate) value: Option<Expr>,
    pub(crate) updates: Vec<UpdateDef>,
    pub(crate) schedule: FuncSchedule,
}

/// A stage of a Halide pipeline: a function from coordinates to values.
///
/// `Func` is a cheap-to-clone handle (clones share the same definition and
/// schedule). The typical life cycle is: create, [`define`](Func::define),
/// optionally add [`update`](Func::update) definitions, call from other
/// funcs via [`at`](Func::at), then apply scheduling directives.
///
/// # Examples
///
/// ```
/// use halide_lang::{Func, Var, ImageParam};
/// use halide_ir::Type;
///
/// let input = ImageParam::new("input", Type::f32(), 2);
/// let (x, y) = (Var::new("x"), Var::new("y"));
/// let blurx = Func::new("blurx");
/// blurx.define(&[x.clone(), y.clone()], (
///     input.at_clamped(vec![x.expr() - 1, y.expr()]) +
///     input.at_clamped(vec![x.expr(),     y.expr()]) +
///     input.at_clamped(vec![x.expr() + 1, y.expr()])) / 3.0f32);
///
/// let out = Func::new("out");
/// out.define(&[x.clone(), y.clone()], (
///     blurx.at(vec![x.expr(), y.expr() - 1]) +
///     blurx.at(vec![x.expr(), y.expr()]) +
///     blurx.at(vec![x.expr(), y.expr() + 1])) / 3.0f32);
///
/// // Scheduling is separate from the algorithm:
/// out.split_dim("y", "yo", "yi", 8).parallelize("yo");
/// blurx.compute_at(&out, "yo");
/// ```
#[derive(Debug, Clone)]
pub struct Func {
    name: String,
    inner: Arc<Mutex<FuncInner>>,
}

impl PartialEq for Func {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }
}

impl Func {
    /// Creates a new, undefined function named `name`. Names need not be
    /// unique across a program, only within one [`Pipeline`](crate::Pipeline).
    pub fn new(name: impl Into<String>) -> Self {
        let name = name.into();
        let inner = Arc::new(Mutex::new(FuncInner {
            name: name.clone(),
            args: Vec::new(),
            value: None,
            updates: Vec::new(),
            schedule: FuncSchedule::default(),
        }));
        Func { name, inner }
    }

    /// The function a call's handle refers to.
    ///
    /// # Panics
    ///
    /// Panics if the handle was not made by [`Func::at`].
    pub(crate) fn from_handle(handle: &FuncRef) -> Self {
        let inner = handle
            .downcast::<Mutex<FuncInner>>()
            .expect("a Halide call's handle refers to a Func");
        let name = inner.lock().expect("func lock poisoned").name.clone();
        Func { name, inner }
    }

    /// `e` with the handles taken off its calls to this function. A
    /// definition that held a handle on its own function would be a
    /// reference cycle, never freed; a self-call needs none, since
    /// [`Pipeline::new`](crate::Pipeline::new) does not follow it.
    pub(crate) fn without_self_handles(&self, e: &Expr) -> Expr {
        struct Strip<'a>(&'a Arc<Mutex<FuncInner>>);
        impl IrMutator for Strip<'_> {
            fn mutate_expr(&mut self, e: &Expr) -> Expr {
                let e = halide_ir::mutate_expr_children(self, e);
                match e.node() {
                    ExprNode::Call {
                        ty,
                        name,
                        call_type,
                        args,
                        func: Some(f),
                    } if f
                        .downcast::<Mutex<FuncInner>>()
                        .is_some_and(|f| Arc::ptr_eq(&f, self.0)) =>
                    {
                        Expr::call(*ty, name.clone(), *call_type, args.clone())
                    }
                    _ => e,
                }
            }
        }
        Strip(&self.inner).mutate_expr(e)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, FuncInner> {
        self.inner.lock().expect("func lock poisoned")
    }

    /// The function's name.
    pub fn name(&self) -> String {
        self.name.clone()
    }

    /// True once [`define`](Func::define) has been called.
    pub fn defined(&self) -> bool {
        self.lock().value.is_some()
    }

    /// Gives the function its pure definition.
    ///
    /// # Panics
    ///
    /// Panics if the function is already defined, if `args` is empty, or if
    /// argument names repeat.
    pub fn define(&self, args: &[Var], value: Expr) {
        let mut inner = self.lock();
        assert!(
            inner.value.is_none(),
            "function {} is already defined",
            inner.name
        );
        assert!(!args.is_empty(), "a function needs at least one argument");
        let names: Vec<String> = args.iter().map(|a| a.name().to_string()).collect();
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(
            dedup.len(),
            names.len(),
            "function {} has repeated argument names {names:?}",
            inner.name
        );
        inner.schedule = FuncSchedule::default_for_args(&names);
        inner.args = names;
        inner.value = Some(value);
    }

    /// Adds an update (reduction) definition.
    ///
    /// The function must already have a pure definition (which serves as the
    /// initial value). Updates are applied in the order they are added, each
    /// iterating over its reduction domain in lexicographic order.
    ///
    /// # Panics
    ///
    /// Panics if the function is not yet defined or if the number of
    /// coordinates differs from the function's dimensionality.
    pub fn update(&self, args: Vec<Expr>, value: Expr, rdom: Option<RDom>) {
        let mut inner = self.lock();
        assert!(
            inner.value.is_some(),
            "function {} needs a pure definition before an update definition",
            inner.name
        );
        assert_eq!(
            args.len(),
            inner.args.len(),
            "update of {} must have {} coordinates",
            inner.name,
            inner.args.len()
        );
        let mut update = UpdateDef {
            args: args.iter().map(|a| self.without_self_handles(a)).collect(),
            value: self.without_self_handles(&value),
            rdom,
            schedule: StageSchedule::default(),
        };
        let rvars: Vec<String> = update
            .rdom
            .iter()
            .flat_map(|r| r.dims().iter().map(|d| d.name().to_string()))
            .collect();
        update.schedule =
            StageSchedule::default_for(&looped_args(&inner.args, &update.args), &rvars);
        inner.updates.push(update);
    }

    /// A handle on update definition `index` (0 is the first update), for
    /// scheduling it. The name `update` is the definition method.
    ///
    /// # Panics
    ///
    /// Panics if the function has no such update.
    pub fn update_stage(&self, index: usize) -> Stage {
        let n = self.lock().updates.len();
        assert!(
            index < n,
            "function {} has {n} update definitions, no update {index}",
            self.name
        );
        Stage::new(self.clone(), index)
    }

    pub(crate) fn with_inner<T>(&self, op: impl FnOnce(&mut FuncInner) -> T) -> T {
        op(&mut self.lock())
    }

    /// The value type of the function (the type of its pure definition).
    ///
    /// # Panics
    ///
    /// Panics if the function is not yet defined.
    pub fn ty(&self) -> Type {
        self.lock()
            .value
            .as_ref()
            .map(|v| v.ty())
            .unwrap_or_else(|| panic!("function {} is not defined yet", self.name))
    }

    /// The names of the pure arguments.
    pub fn args(&self) -> Vec<String> {
        self.lock().args.clone()
    }

    /// The pure definition's right-hand side.
    ///
    /// # Panics
    ///
    /// Panics if the function is not yet defined.
    pub fn value(&self) -> Expr {
        self.lock()
            .value
            .clone()
            .unwrap_or_else(|| panic!("function {} is not defined yet", self.name))
    }

    /// The update definitions, in application order.
    pub fn updates(&self) -> Vec<UpdateDef> {
        self.lock().updates.clone()
    }

    /// A call to this function at the given coordinates, for use in the
    /// definition of downstream functions (or of this function's own updates).
    ///
    /// # Panics
    ///
    /// Panics if the function is not defined or the number of coordinates is
    /// wrong.
    pub fn at(&self, coords: Vec<Expr>) -> Expr {
        let inner = self.lock();
        let ty = inner.value.as_ref().map(|v| v.ty()).unwrap_or_else(|| {
            panic!(
                "function {} must be defined before it is called",
                inner.name
            )
        });
        assert_eq!(
            coords.len(),
            inner.args.len(),
            "function {} has {} dimensions but was called with {}",
            inner.name,
            inner.args.len(),
            coords.len()
        );
        let handle = FuncRef::new(Arc::clone(&self.inner));
        Expr::call_with(
            ty,
            inner.name.clone(),
            CallType::Halide,
            coords,
            Some(handle),
        )
    }

    // ---- schedule ----------------------------------------------------------

    /// A copy of the function's current schedule.
    pub fn schedule(&self) -> FuncSchedule {
        self.lock().schedule.clone()
    }

    /// Replaces the function's schedule wholesale (used by the autotuner).
    pub fn set_schedule(&self, schedule: FuncSchedule) {
        self.lock().schedule = schedule;
    }

    fn edit_schedule(
        &self,
        op: impl FnOnce(&mut FuncSchedule) -> halide_schedule::Result<()>,
    ) -> &Self {
        let mut inner = self.lock();
        let name = inner.name.clone();
        if let Err(e) = op(&mut inner.schedule) {
            panic!("scheduling {name}: {e}");
        }
        drop(inner);
        self
    }

    /// Splits dimension `old` into `outer`/`inner` with the given factor.
    ///
    /// # Panics
    ///
    /// Panics if the split is invalid (unknown dimension, bad factor, name
    /// collision).
    pub fn split_dim(&self, old: &str, outer: &str, inner: &str, factor: i64) -> &Self {
        self.edit_schedule(|s| s.split(old, outer, inner, factor))
    }

    /// Splits dimension `old` into `outer`/`inner` with an explicit
    /// [`TailStrategy`](halide_schedule::TailStrategy) for the iterations
    /// past the last full tile; this is what makes vectorizing
    /// non-divisible extents legal.
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
        tail: halide_schedule::TailStrategy,
    ) -> &Self {
        self.edit_schedule(|s| s.split_with_tail(old, outer, inner, factor, tail))
    }

    /// Reorders dimensions; `order` is outermost-first.
    ///
    /// # Panics
    ///
    /// Panics if a named dimension does not exist or repeats.
    pub fn reorder_dims(&self, order: &[&str]) -> &Self {
        self.edit_schedule(|s| s.reorder(order))
    }

    /// Marks a dimension parallel.
    ///
    /// # Panics
    ///
    /// Panics if the dimension does not exist.
    pub fn parallelize(&self, dim: &str) -> &Self {
        self.edit_schedule(|s| s.parallel(dim))
    }

    /// Marks a dimension vectorized.
    ///
    /// # Panics
    ///
    /// Panics if the dimension does not exist.
    pub fn vectorize_dim(&self, dim: &str) -> &Self {
        self.edit_schedule(|s| s.vectorize(dim))
    }

    /// Marks a dimension unrolled.
    ///
    /// # Panics
    ///
    /// Panics if the dimension does not exist.
    pub fn unroll_dim(&self, dim: &str) -> &Self {
        self.edit_schedule(|s| s.unroll(dim))
    }

    /// Tiles the `x`/`y` dimensions with the given tile size, producing
    /// `xo, yo` (outer) and `xi, yi` (inner) loops ordered `yo, xo, yi, xi`.
    ///
    /// # Panics
    ///
    /// Panics if either dimension does not exist or names collide.
    // Halide's `tile(x, y, xo, yo, xi, yi, xf, yf)`, argument for argument.
    #[allow(clippy::too_many_arguments)]
    pub fn tile_dims(
        &self,
        x: &str,
        y: &str,
        xo: &str,
        yo: &str,
        xi: &str,
        yi: &str,
        xfactor: i64,
        yfactor: i64,
    ) -> &Self {
        self.edit_schedule(|s| s.tile(x, y, xo, yo, xi, yi, xfactor, yfactor))
    }

    /// Computes this function at the root level (breadth-first), storing it
    /// at root as well.
    pub fn compute_root(&self) -> &Self {
        let mut inner = self.lock();
        inner.schedule.compute_level = LoopLevel::Root;
        inner.schedule.store_level = LoopLevel::Root;
        drop(inner);
        self
    }

    /// Inlines this function into every use site (total fusion).
    pub fn compute_inline(&self) -> &Self {
        let mut inner = self.lock();
        inner.schedule.compute_level = LoopLevel::Inline;
        inner.schedule.store_level = LoopLevel::Inline;
        drop(inner);
        self
    }

    /// Computes this function as needed for each iteration of loop `var` of
    /// `consumer`. Unless a coarser [`store_at`](Func::store_at) is given, the
    /// storage is placed at the same level.
    pub fn compute_at(&self, consumer: &Func, var: &str) -> &Self {
        let mut inner = self.lock();
        inner.schedule.compute_level = LoopLevel::at(consumer.name(), var);
        if inner.schedule.store_level == LoopLevel::Root
            || inner.schedule.store_level == LoopLevel::Inline
        {
            inner.schedule.store_level = LoopLevel::at(consumer.name(), var);
        }
        drop(inner);
        self
    }

    /// Stores this function at loop `var` of `consumer` (must be the compute
    /// level or a coarser one).
    pub fn store_at(&self, consumer: &Func, var: &str) -> &Self {
        self.lock().schedule.store_level = LoopLevel::at(consumer.name(), var);
        self
    }

    /// Stores this function at the root level while leaving the compute level
    /// unchanged (used for sliding-window schedules).
    pub fn store_root(&self) -> &Self {
        self.lock().schedule.store_level = LoopLevel::Root;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xy() -> (Var, Var) {
        (Var::new("x"), Var::new("y"))
    }

    #[test]
    fn define_and_call() {
        let (x, y) = xy();
        let f = Func::new("func_test_simple");
        f.define(&[x.clone(), y.clone()], x.expr() + y.expr());
        assert!(f.defined());
        assert_eq!(f.ty(), Type::i32());
        assert_eq!(f.args(), vec!["x".to_string(), "y".to_string()]);

        let call = f.at(vec![Expr::int(1), Expr::int(2)]);
        assert_eq!(call.ty(), Type::i32());
        assert!(call.to_string().starts_with(&f.name()));
    }

    #[test]
    #[should_panic(expected = "already defined")]
    fn double_definition_panics() {
        let (x, _) = xy();
        let f = Func::new("func_test_double");
        f.define(std::slice::from_ref(&x), Expr::int(0));
        f.define(&[x], Expr::int(1));
    }

    #[test]
    #[should_panic(expected = "must be defined before")]
    fn call_before_define_panics() {
        let f = Func::new("func_test_undefined");
        let _ = f.at(vec![Expr::int(0)]);
    }

    #[test]
    #[should_panic(expected = "repeated argument names")]
    fn repeated_args_panics() {
        let x = Var::new("x");
        let f = Func::new("func_test_repeat");
        f.define(&[x.clone(), x], Expr::int(0));
    }

    #[test]
    fn update_definitions() {
        let i = Var::new("i");
        let hist = Func::new("func_test_hist");
        hist.define(std::slice::from_ref(&i), Expr::int(0));
        let r = RDom::over("r", 0, 100);
        hist.update(
            vec![r.x().expr() % 16],
            hist.at(vec![r.x().expr() % 16]) + 1,
            Some(r),
        );
        assert_eq!(hist.updates().len(), 1);
        assert!(hist.updates()[0].rdom.is_some());
    }

    #[test]
    fn default_schedule_is_root() {
        let (x, y) = xy();
        let f = Func::new("func_test_sched_default");
        f.define(&[x, y], Expr::f32(0.0));
        let s = f.schedule();
        assert!(s.compute_level.is_root());
        assert_eq!(s.dims.len(), 2);
        assert_eq!(s.dims[0].name, "y"); // row-major: y outermost
    }

    #[test]
    fn scheduling_directives_chain() {
        let (x, y) = xy();
        let f = Func::new("func_test_sched_chain");
        f.define(&[x.clone(), y.clone()], Expr::f32(1.0));
        let g = Func::new("func_test_sched_chain_out");
        g.define(&[x, y], f.at(vec![Expr::var_i32("x"), Expr::var_i32("y")]));

        g.split_dim("y", "yo", "yi", 8)
            .parallelize("yo")
            .split_dim("x", "xo", "xi", 4)
            .vectorize_dim("xi");
        f.compute_at(&g, "yo");

        let gs = g.schedule();
        assert_eq!(
            gs.dims.iter().map(|d| d.name.as_str()).collect::<Vec<_>>(),
            vec!["yo", "yi", "xo", "xi"]
        );
        let fs = f.schedule();
        assert_eq!(fs.compute_level, LoopLevel::at(g.name(), "yo"));
        assert_eq!(fs.store_level, LoopLevel::at(g.name(), "yo"));
    }

    #[test]
    fn store_at_coarser_than_compute() {
        let (x, y) = xy();
        let f = Func::new("func_test_store_coarse");
        f.define(&[x.clone(), y.clone()], Expr::f32(1.0));
        let g = Func::new("func_test_store_coarse_out");
        g.define(&[x, y], f.at(vec![Expr::var_i32("x"), Expr::var_i32("y")]));
        f.store_root();
        f.compute_at(&g, "y");
        let fs = f.schedule();
        // compute_at must not have overwritten an explicit store_root ... it
        // does overwrite Root by design (store defaults to compute level), so
        // set store_root after compute_at for sliding windows:
        assert_eq!(fs.store_level, LoopLevel::at(g.name(), "y"));
        f.store_root();
        assert_eq!(f.schedule().store_level, LoopLevel::Root);
    }

    #[test]
    #[should_panic(expected = "scheduling")]
    fn invalid_directive_panics() {
        let (x, y) = xy();
        let f = Func::new("func_test_invalid_split");
        f.define(&[x, y], Expr::f32(0.0));
        f.split_dim("nope", "a", "b", 4);
    }

    /// Every function of a dropped pipeline is freed, including one whose
    /// update calls itself and the intermediate `rfactor` makes.
    #[test]
    fn dropping_a_pipeline_frees_its_funcs() {
        let (x, y) = xy();
        let input = crate::ImageParam::new("func_test_own_in", Type::i32(), 2);
        let src = Func::new("func_test_own_src");
        src.define(&[x.clone(), y.clone()], input.at(vec![x.expr(), y.expr()]));
        let hist = Func::new("func_test_own_hist");
        hist.define(std::slice::from_ref(&x), Expr::int(0));
        let r = RDom::new(
            "r",
            vec![(Expr::int(0), Expr::int(8)), (Expr::int(0), Expr::int(4))],
        );
        let bin = src
            .at(vec![r.x().expr(), r.y().expr()])
            .clamp(Expr::int(0), Expr::int(7));
        hist.update(vec![bin.clone()], hist.at(vec![bin]) + 1, Some(r));
        let intm = hist.update_stage(0).rfactor("r.y", "u");
        let out = Func::new("func_test_own_out");
        out.define(std::slice::from_ref(&x), hist.at(vec![x.expr()]) * 2);

        let p = crate::Pipeline::new(&out);
        assert_eq!(p.len(), 4);
        let weak: Vec<_> = [&src, &hist, &intm, &out]
            .iter()
            .map(|f| Arc::downgrade(&f.inner))
            .collect();
        drop((src, hist, intm, out));
        assert!(
            weak.iter().all(|w| w.upgrade().is_some()),
            "the pipeline holds its funcs"
        );
        drop(p);
        for w in &weak {
            assert!(w.upgrade().is_none(), "a func outlived its pipeline");
        }
    }

    #[test]
    fn clones_share_state() {
        let (x, y) = xy();
        let f = Func::new("func_test_clone_share");
        f.define(&[x, y], Expr::f32(0.0));
        let g = f.clone();
        g.parallelize("y");
        assert_eq!(
            f.schedule().dims[0].kind,
            halide_schedule::ForKind::Parallel
        );
        assert_eq!(f, g);
    }
}
