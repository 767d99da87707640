//! Bounds inference (Sec. 4.2): computing the region of a producer required
//! by the statements that consume it, using interval analysis.
//!
//! Unlike the polyhedral approach, the region is always an axis-aligned box
//! whose per-dimension bounds are ordinary expressions in the variables of
//! the loops *enclosing* the point where the producer will be realized.
//! Loops *inside* that point are eliminated by substituting their whole
//! iteration interval.
//!
//! # Interaction with let-bound bounds
//!
//! Injection ([`crate::inject`]) names every realization's bounds with
//! `LetStmt`s (`<func>.<dim>.min` / `<func>.<dim>.extent`) and the loop
//! nests reference those *names*, so the statement this pass analyzes is
//! let-dense. The region walker is let-aware: each `LetStmt` (and
//! expression-level `Let`) pushes the interval of its value onto the scope
//! for the duration of its body, with shadowing handled by the stack
//! structure of [`Scope`]. A region returned by [`region_required`] is
//! therefore always expressed in symbols bound *outside* the analyzed
//! statement — lets bound inside it have been resolved away — which is what
//! makes the result evaluatable right at the realization point.

use halide_ir::interval::{bounds_of_expr_in_scope, loop_interval, Interval};
use halide_ir::{simplify, CallType, CmpOp, Expr, ExprNode, Range, Scope, Stmt, StmtNode};

use crate::error::{LowerError, Result};
use crate::nest::ShiftInwards;

/// The inferred bounds of one producer: one interval per pure dimension.
#[derive(Debug, Clone)]
pub struct RegionBox {
    /// Per-dimension intervals, in the order of the producer's pure args.
    pub dims: Vec<Interval>,
}

impl RegionBox {
    fn empty(ndims: usize) -> Self {
        RegionBox {
            dims: vec![
                Interval {
                    min: None,
                    max: None,
                };
                ndims
            ],
        }
    }

    fn union_in_place(&mut self, dim: usize, other: &Interval) {
        let current = &self.dims[dim];
        // An empty (fully unbounded-by-absence) entry is replaced outright;
        // otherwise union.
        self.dims[dim] = if current.min.is_none() && current.max.is_none() {
            other.clone()
        } else {
            current.union(other)
        };
    }

    /// Converts the box into `Range`s (min, extent).
    ///
    /// `dims` supplies the producer's pure argument names so diagnostics can
    /// name the offending dimension, not just its index.
    ///
    /// # Errors
    ///
    /// Fails if any dimension is unbounded, naming the function *and* the
    /// dimension for diagnosis — the fix is usually a `clamp` in the
    /// algorithm, exactly as in the paper.
    pub fn to_ranges(&self, func: &str, dims: &[String]) -> Result<Vec<Range>> {
        self.dims
            .iter()
            .enumerate()
            .map(|(d, i)| match (&i.min, i.extent()) {
                (Some(min), Some(extent)) => Ok(Range::new(min.clone(), extent)),
                _ => {
                    let dim_name = dims.get(d).map(String::as_str).unwrap_or("?");
                    Err(LowerError::new(format!(
                        "cannot infer bounds for dimension {d} ({dim_name:?}) of {func:?}; \
                         an access is unbounded (consider clamping the coordinate)"
                    ))
                    .in_func(func)
                    .in_dim(dim_name))
                }
            })
            .collect()
    }

    /// True if no call site contributed any bounds (the function is unused in
    /// the analyzed statement).
    pub fn is_empty(&self) -> bool {
        self.dims.iter().all(|i| i.min.is_none() && i.max.is_none())
    }
}

struct RegionWalker<'a> {
    func: &'a str,
    ndims: usize,
    scope: Scope<Interval>,
    region: RegionBox,
}

impl RegionWalker<'_> {
    /// Unions the bounds of one access's coordinates into the region.
    fn touch(&mut self, args: &[Expr]) {
        for (d, a) in args.iter().enumerate().take(self.ndims) {
            let b = bounds_of_expr_in_scope(a, &self.scope);
            self.region.union_in_place(d, &b);
        }
    }

    fn visit_expr(&mut self, e: &Expr) {
        if let ExprNode::Call {
            name,
            call_type,
            args,
            ..
        } = e.node()
        {
            if name == self.func && matches!(call_type, CallType::Halide | CallType::Image) {
                self.touch(args);
            }
        }
        // Recurse manually over children (including call args, which may
        // themselves contain further calls — data-dependent gathers).
        match e.node() {
            ExprNode::IntImm { .. }
            | ExprNode::UIntImm { .. }
            | ExprNode::FloatImm { .. }
            | ExprNode::Var { .. } => {}
            ExprNode::Cast { value, .. }
            | ExprNode::Broadcast { value, .. }
            | ExprNode::Not { a: value } => self.visit_expr(value),
            ExprNode::Bin { a, b, .. }
            | ExprNode::Cmp { a, b, .. }
            | ExprNode::And { a, b }
            | ExprNode::Or { a, b } => {
                self.visit_expr(a);
                self.visit_expr(b);
            }
            ExprNode::Select { cond, t, f } => {
                self.visit_expr(cond);
                self.visit_expr(t);
                self.visit_expr(f);
            }
            ExprNode::Ramp { base, stride, .. } => {
                self.visit_expr(base);
                self.visit_expr(stride);
            }
            ExprNode::Let { name, value, body } => {
                self.visit_expr(value);
                let b = bounds_of_expr_in_scope(value, &self.scope);
                self.scope.push(name.clone(), b);
                self.visit_expr(body);
                self.scope.pop(name);
            }
            ExprNode::Load {
                index, predicate, ..
            } => {
                self.visit_expr(index);
                if let Some(p) = predicate {
                    self.visit_expr(p);
                }
            }
            ExprNode::Call { args, .. } => {
                for a in args {
                    self.visit_expr(a);
                }
            }
        }
    }

    /// Narrows in-scope variables under an `if`'s condition for the
    /// duration of its then-branch: each `v < e` conjunct caps `v` at
    /// `max(e) - 1`. A predicate tail guards its last, partial vector with
    /// exactly this (`old < old_min + old_extent`), so the masked lanes
    /// stop widening the producers' regions. Returns the names pushed, which
    /// the caller pops after the then-branch.
    fn push_guard(&mut self, condition: &Expr) -> Vec<String> {
        match condition.node() {
            ExprNode::And { a, b } => {
                let mut names = self.push_guard(a);
                names.extend(self.push_guard(b));
                names
            }
            ExprNode::Cmp {
                op: CmpOp::Lt,
                a,
                b,
            } => {
                let (Some(name), Some(limit)) =
                    (a.as_var(), bounds_of_expr_in_scope(b, &self.scope).max)
                else {
                    return Vec::new();
                };
                let Some(current) = self.scope.get(name) else {
                    return Vec::new();
                };
                let last = limit - 1;
                let max = match &current.max {
                    Some(hi) => Expr::min(hi.clone(), last),
                    None => last,
                };
                let narrowed = Interval {
                    min: current.min.clone(),
                    max: Some(simplify(&max)),
                };
                self.scope.push(name.to_string(), narrowed);
                vec![name.to_string()]
            }
            _ => Vec::new(),
        }
    }

    /// The closed-form interval of a shift-inwards split's recombined
    /// variable (see [`ShiftInwards`]): with `outer >= 0` and
    /// `extent >= f` the shift spans exactly `[0, extent - f]`, so `old`
    /// spans `old_min + [0, extent - f] + inner` — `[old_min, old_min +
    /// extent - 1]` for an unsplit inner loop. Interval analysis of the
    /// `min` alone cannot use `extent >= f` and leaves
    /// `min(((extent + f - 1)/f - 1)*f, extent - f)` in every consumer's
    /// region.
    fn shift_inwards_interval(&self, value: &Expr) -> Option<Interval> {
        let split = ShiftInwards::parse(value)?;
        let bounds = |e: &Expr| bounds_of_expr_in_scope(e, &self.scope);
        if bounds(split.outer)
            .min
            .and_then(|m| m.as_const_int())
            .is_none_or(|m| m < 0)
        {
            return None;
        }
        let (base, lanes) = (bounds(split.old_min), bounds(split.inner));
        let min = base.min.zip(lanes.min).map(|(b, i)| simplify(&(b + i)));
        let max = match (base.max, bounds(split.extent).max, lanes.max) {
            (Some(b), Some(e), Some(i)) => {
                Some(simplify(&((b + e) + (i - Expr::int(split.factor as i32)))))
            }
            _ => None,
        };
        Some(Interval { min, max })
    }

    fn visit_stmt(&mut self, s: &Stmt) {
        match s.node() {
            StmtNode::LetStmt { name, value, body } => {
                self.visit_expr(value);
                let b = self
                    .shift_inwards_interval(value)
                    .unwrap_or_else(|| bounds_of_expr_in_scope(value, &self.scope));
                self.scope.push(name.clone(), b);
                self.visit_stmt(body);
                self.scope.pop(name);
            }
            StmtNode::Assert { condition, .. } => self.visit_expr(condition),
            StmtNode::Producer { body, .. } => self.visit_stmt(body),
            StmtNode::For {
                name,
                min,
                extent,
                body,
                ..
            } => {
                self.visit_expr(min);
                self.visit_expr(extent);
                // The loop variable covers [min, min+extent-1]; both ends are
                // reduced to the current scope so that only symbols defined
                // outside the analyzed statement survive.
                let imin = bounds_of_expr_in_scope(min, &self.scope);
                let iextent = bounds_of_expr_in_scope(extent, &self.scope);
                let interval = match (&imin.min, &imin.max, &iextent.max) {
                    // Single-point loop min: no need to union both ends (the
                    // duplicated copies of `lo` otherwise compound through
                    // chained stages).
                    (Some(lo), Some(hi), Some(ext_hi)) if lo == hi => loop_interval(lo, ext_hi),
                    (Some(lo), Some(hi), Some(ext_hi)) => {
                        loop_interval(lo, ext_hi).union(&loop_interval(hi, ext_hi))
                    }
                    _ => Interval::everything(),
                };
                self.scope.push(name.clone(), interval);
                self.visit_stmt(body);
                self.scope.pop(name);
            }
            StmtNode::Provide { name, value, args } => {
                self.visit_expr(value);
                for a in args {
                    self.visit_expr(a);
                }
                if name == self.func {
                    self.touch(args);
                }
            }
            StmtNode::Store {
                value,
                index,
                predicate,
                ..
            } => {
                self.visit_expr(value);
                self.visit_expr(index);
                if let Some(p) = predicate {
                    self.visit_expr(p);
                }
            }
            StmtNode::Realize { bounds, body, .. } => {
                for r in bounds {
                    self.visit_expr(&r.min);
                    self.visit_expr(&r.extent);
                }
                self.visit_stmt(body);
            }
            StmtNode::Allocate { size, body, .. } => {
                self.visit_expr(size);
                self.visit_stmt(body);
            }
            StmtNode::Block { stmts } => {
                for s in stmts {
                    self.visit_stmt(s);
                }
            }
            StmtNode::IfThenElse {
                condition,
                then_case,
                else_case,
            } => {
                self.visit_expr(condition);
                let narrowed = self.push_guard(condition);
                self.visit_stmt(then_case);
                for name in narrowed.iter().rev() {
                    self.scope.pop(name);
                }
                if let Some(e) = else_case {
                    self.visit_stmt(e);
                }
            }
            StmtNode::Evaluate { value } => self.visit_expr(value),
            StmtNode::NoOp => {}
        }
    }
}

/// Computes the region of `func` (with `ndims` pure dimensions) touched
/// inside `stmt`: every coordinate it is read at (its call sites) and every
/// coordinate it is written at (its `Provide` sites).
///
/// A produce nest can write more than its consumers read — a split tail
/// rounds up, or a read the simplifier dropped still sized the compute
/// region — so a storage fold sized from this region holds every write.
/// Queried at a consumer's level before the producer is injected, the
/// producer has no `Provide` sites there and this is exactly what the
/// consumers read.
///
/// Loop variables bound *inside* `stmt` are folded into the region (their
/// whole range is assumed to execute); variables bound outside remain
/// symbolic, so the result can be evaluated right where the producer will be
/// realized.
pub fn region_required(stmt: &Stmt, func: &str, ndims: usize) -> RegionBox {
    let mut w = RegionWalker {
        func,
        ndims,
        scope: Scope::new(),
        region: RegionBox::empty(ndims),
    };
    w.visit_stmt(stmt);
    w.region
}

/// Counts call sites of `func` in `stmt` (used to verify that a `compute_at`
/// level encloses every consumer).
///
/// This is a plain syntactic count — no interval analysis — so it is cheap
/// to run over the whole (let-dense) pipeline statement.
pub fn count_calls(stmt: &Stmt, func: &str) -> usize {
    use halide_ir::IrVisitor;
    struct Counter<'a> {
        func: &'a str,
        n: usize,
    }
    impl IrVisitor for Counter<'_> {
        fn visit_expr(&mut self, e: &Expr) {
            if let ExprNode::Call {
                name, call_type, ..
            } = e.node()
            {
                if name == self.func && matches!(call_type, CallType::Halide | CallType::Image) {
                    self.n += 1;
                }
            }
            halide_ir::visit_expr_children(self, e);
        }
    }
    let mut c = Counter { func, n: 0 };
    c.visit_stmt(stmt);
    c.n
}

#[cfg(test)]
mod tests {
    use super::*;
    use halide_ir::{ForKind, Type};

    fn call(name: &str, args: Vec<Expr>) -> Expr {
        Expr::call(Type::f32(), name, CallType::Halide, args)
    }

    fn dims(names: &[&str]) -> Vec<String> {
        names.iter().map(|n| n.to_string()).collect()
    }

    #[test]
    fn stencil_region_within_loops() {
        // for y in [0, 8): for x in [0, 16): ... = g(x-1, y+2) + g(x+1, y+2)
        let body = Stmt::provide(
            "out",
            call("g", vec![Expr::var_i32("x") - 1, Expr::var_i32("y") + 2])
                + call("g", vec![Expr::var_i32("x") + 1, Expr::var_i32("y") + 2]),
            vec![Expr::var_i32("x"), Expr::var_i32("y")],
        );
        let s = Stmt::for_loop(
            "y",
            Expr::int(0),
            Expr::int(8),
            ForKind::Serial,
            Stmt::for_loop("x", Expr::int(0), Expr::int(16), ForKind::Serial, body),
        );
        let r = region_required(&s, "g", 2);
        let ranges = r.to_ranges("g", &dims(&["x", "y"])).unwrap();
        assert_eq!(ranges[0].min.as_const_int(), Some(-1));
        assert_eq!(ranges[0].extent.as_const_int(), Some(18));
        assert_eq!(ranges[1].min.as_const_int(), Some(2));
        assert_eq!(ranges[1].extent.as_const_int(), Some(8));
        assert_eq!(count_calls(&s, "g"), 2);
    }

    #[test]
    fn outer_loops_stay_symbolic() {
        // Analyzing only the inner statement: the x loop is inside, y is not.
        let body = Stmt::provide(
            "out",
            call("g", vec![Expr::var_i32("x"), Expr::var_i32("y") - 1]),
            vec![Expr::var_i32("x"), Expr::var_i32("y")],
        );
        let inner = Stmt::for_loop("x", Expr::int(0), Expr::int(4), ForKind::Serial, body);
        let r = region_required(&inner, "g", 2);
        let ranges = r.to_ranges("g", &dims(&["x", "y"])).unwrap();
        assert_eq!(ranges[0].min.as_const_int(), Some(0));
        assert_eq!(ranges[0].extent.as_const_int(), Some(4));
        assert_eq!(ranges[1].min.to_string(), "(y - 1)");
        assert_eq!(ranges[1].extent.as_const_int(), Some(1));
    }

    #[test]
    fn unbounded_access_is_an_error() {
        let idx = Expr::load(Type::i32(), "lut", Expr::var_i32("x"));
        let body = Stmt::provide("out", call("g", vec![idx]), vec![Expr::var_i32("x")]);
        let s = Stmt::for_loop("x", Expr::int(0), Expr::int(4), ForKind::Serial, body);
        let r = region_required(&s, "g", 1);
        let err = r.to_ranges("g", &dims(&["x"])).unwrap_err();
        // The diagnostic names both the function and the dimension.
        assert_eq!(err.func(), Some("g"));
        assert_eq!(err.dim(), Some("x"));
        assert!(err.to_string().contains("\"x\""));
        assert!(err.to_string().contains("\"g\""));
    }

    #[test]
    fn clamped_data_dependent_access_is_bounded() {
        let idx =
            Expr::load(Type::i32(), "lut", Expr::var_i32("x")).clamp(Expr::int(0), Expr::int(7));
        let body = Stmt::provide("out", call("g", vec![idx]), vec![Expr::var_i32("x")]);
        let s = Stmt::for_loop("x", Expr::int(0), Expr::int(4), ForKind::Serial, body);
        let ranges = region_required(&s, "g", 1)
            .to_ranges("g", &dims(&["x"]))
            .unwrap();
        assert_eq!(ranges[0].min.as_const_int(), Some(0));
        assert_eq!(ranges[0].extent.as_const_int(), Some(8));
    }

    #[test]
    fn unused_func_has_empty_region() {
        let s = Stmt::evaluate(Expr::int(0));
        assert!(region_required(&s, "g", 2).is_empty());
        assert_eq!(count_calls(&s, "g"), 0);
    }

    #[test]
    fn let_bound_coordinates_are_resolved() {
        let body = Stmt::let_stmt(
            "t",
            Expr::var_i32("x") * 2,
            Stmt::provide(
                "out",
                call("g", vec![Expr::var_i32("t")]),
                vec![Expr::var_i32("x")],
            ),
        );
        let s = Stmt::for_loop("x", Expr::int(0), Expr::int(5), ForKind::Serial, body);
        let ranges = region_required(&s, "g", 1)
            .to_ranges("g", &dims(&["x"]))
            .unwrap();
        assert_eq!(ranges[0].min.as_const_int(), Some(0));
        assert_eq!(ranges[0].extent.as_const_int(), Some(9));
    }

    #[test]
    fn touched_region_counts_writes() {
        // for x in [0, 4): g(x + 2) = g(x)
        let body = Stmt::provide(
            "g",
            call("g", vec![Expr::var_i32("x")]),
            vec![Expr::var_i32("x") + 2],
        );
        let s = Stmt::for_loop("x", Expr::int(0), Expr::int(4), ForKind::Serial, body);
        let range = |r: RegionBox| {
            let r = r.to_ranges("g", &dims(&["x"])).unwrap().remove(0);
            (r.min.as_const_int(), r.extent.as_const_int())
        };
        assert_eq!(range(region_required(&s, "g", 1)), (Some(0), Some(6)));
    }

    /// `for x in [0, 128): if (x < 96) { then } else { else }`, with `g(x)`
    /// consumed in the branches given, as `g`'s single-dimension range.
    fn guarded_region(then_calls: bool, else_calls: bool) -> (Option<i64>, Option<i64>) {
        let use_g = |on: bool| {
            let value = if on {
                call("g", vec![Expr::var_i32("x")])
            } else {
                Expr::f32(0.0)
            };
            Stmt::provide("out", value, vec![Expr::var_i32("x")])
        };
        let guard = Expr::lt(Expr::var_i32("x"), Expr::int(96));
        let body = Stmt::if_then_else(guard, use_g(then_calls), Some(use_g(else_calls)));
        let s = Stmt::for_loop("x", Expr::int(0), Expr::int(128), ForKind::Serial, body);
        let ranges = region_required(&s, "g", 1)
            .to_ranges("g", &dims(&["x"]))
            .unwrap();
        (
            ranges[0].min.as_const_int(),
            ranges[0].extent.as_const_int(),
        )
    }

    #[test]
    fn guard_narrows_an_in_scope_variable_in_the_then_branch() {
        assert_eq!(guarded_region(true, false), (Some(0), Some(96)));
    }

    #[test]
    fn guard_does_not_narrow_the_else_branch() {
        assert_eq!(guarded_region(false, true), (Some(0), Some(128)));
        assert_eq!(guarded_region(true, true), (Some(0), Some(128)));
    }

    #[test]
    fn guard_on_an_out_of_scope_variable_is_ignored() {
        // `y` is bound outside the analyzed statement: its coordinate stays
        // the symbol itself, one row, whatever the guard says.
        let body = Stmt::if_then_else(
            Expr::lt(Expr::var_i32("y"), Expr::int(4)),
            Stmt::provide(
                "out",
                call("g", vec![Expr::var_i32("x"), Expr::var_i32("y")]),
                vec![Expr::var_i32("x"), Expr::var_i32("y")],
            ),
            None,
        );
        let s = Stmt::for_loop("x", Expr::int(0), Expr::int(8), ForKind::Serial, body);
        let ranges = region_required(&s, "g", 2)
            .to_ranges("g", &dims(&["x", "y"]))
            .unwrap();
        assert_eq!(ranges[0].extent.as_const_int(), Some(8));
        assert_eq!(ranges[1].min.to_string(), "y");
        assert_eq!(ranges[1].extent.as_const_int(), Some(1));
    }
}
