//! Symbolic simplification: constant folding, algebraic identities, and dead
//! code removal.
//!
//! The lowering passes lean on the simplifier heavily (Sec. 4.6 mentions the
//! standard constant-folding pass that also cleans up the patterns produced by
//! bounds inference). The rules below are deliberately conservative: every
//! rewrite preserves the value of the expression for all variable assignments.
//!
//! # Scope-carrying simplification
//!
//! Statement simplification carries a lexical scope of enclosing `let`
//! bindings. Since bounds inference names every realization's bounds
//! (`f.x.min`, `f.x.extent`) instead of substituting interval expressions
//! through consumer chains, min/max terms routinely compare *different*
//! let-bound names whose values are constant offsets of one another —
//! `min(f.x.min + 4, g.x.min)` where `g.x.min = f.x.min - 1`. The
//! scope-carrying pass resolves both operands through the visible lets,
//! decides the winner, and keeps the compact *name* form in the output.
//! Resolution respects shadowing: an inner rebinding of `f.x.min`
//! supersedes (and, when its value is too large to track, suppresses) the
//! outer binding for the extent of its body.

use crate::expr::{BinOp, CmpOp, Expr, ExprNode};
use crate::stmt::{Stmt, StmtNode};
use crate::substitute::{substitute_in_stmt, LetResolver};
use crate::visit::{
    mutate_expr_children, mutate_stmt_children, stmt_uses_var, IrMutator, IrVisitor,
};

/// Integer division rounding toward negative infinity, matching Halide's
/// semantics (so that `(x / 2) * 2 <= x` holds for negative `x` too).
pub fn div_floor(a: i64, b: i64) -> i64 {
    if b == 0 {
        return 0; // division by zero is defined as zero, like Halide's runtime
    }
    let q = a / b;
    if (a % b != 0) && ((a < 0) != (b < 0)) {
        q - 1
    } else {
        q
    }
}

/// Integer modulo with the sign of the divisor (non-negative for positive
/// divisors), consistent with [`div_floor`].
pub fn mod_floor(a: i64, b: i64) -> i64 {
    if b == 0 {
        return 0;
    }
    let r = a % b;
    if r != 0 && ((r < 0) != (b < 0)) {
        r + b
    } else {
        r
    }
}

fn fold_int(op: BinOp, a: i64, b: i64) -> i64 {
    match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::Div => div_floor(a, b),
        BinOp::Mod => mod_floor(a, b),
        BinOp::Min => a.min(b),
        BinOp::Max => a.max(b),
    }
}

fn fold_f64(op: BinOp, a: f64, b: f64) -> f64 {
    match op {
        BinOp::Add => a + b,
        BinOp::Sub => a - b,
        BinOp::Mul => a * b,
        BinOp::Div => a / b,
        BinOp::Mod => a - b * (a / b).floor(),
        BinOp::Min => a.min(b),
        BinOp::Max => a.max(b),
    }
}

fn fold_cmp_int(op: CmpOp, a: i64, b: i64) -> bool {
    match op {
        CmpOp::Eq => a == b,
        CmpOp::Ne => a != b,
        CmpOp::Lt => a < b,
        CmpOp::Le => a <= b,
        CmpOp::Gt => a > b,
        CmpOp::Ge => a >= b,
    }
}

fn fold_cmp_f64(op: CmpOp, a: f64, b: f64) -> bool {
    match op {
        CmpOp::Eq => a == b,
        CmpOp::Ne => a != b,
        CmpOp::Lt => a < b,
        CmpOp::Le => a <= b,
        CmpOp::Gt => a > b,
        CmpOp::Ge => a >= b,
    }
}

/// The largest expression (in nodes) the scope-carrying simplifier will
/// resolve through let bindings. Larger terms are left alone: resolving them
/// would cost more than the fold could save, and the blowup the resolution
/// guards against only produces small name-plus-offset terms anyway.
const LET_RESOLVE_BUDGET: usize = 64;

struct Simplifier {
    /// The `let` bindings enclosing the current node (shadowing- and
    /// budget-aware; see [`LetResolver`]).
    lets: LetResolver,
}

impl Default for Simplifier {
    fn default() -> Self {
        Simplifier {
            lets: LetResolver::new(LET_RESOLVE_BUDGET),
        }
    }
}

/// Splits `e` into `(base, c)` such that `e == base + c`, without building
/// new nodes. Matches `Add`-of-constant (the canonical signed form) and, for
/// signed types only, `Sub`-of-constant; unsigned subtraction is left alone
/// because `x - c` may wrap at 0, so `x - c < x + c` does not hold there.
fn split_add_const(e: &Expr) -> (&Expr, i64) {
    if let ExprNode::Bin { op, a, b } = e.node() {
        match op {
            BinOp::Add => {
                if let Some(c) = b.as_const_int() {
                    return (a, c);
                }
                if let Some(c) = a.as_const_int() {
                    return (b, c);
                }
            }
            BinOp::Sub if matches!(e.ty().scalar(), crate::types::ScalarType::Int(_)) => {
                if let Some(c) = b.as_const_int() {
                    return (a, -c);
                }
            }
            _ => {}
        }
    }
    (e, 0)
}

/// Cheap structural constant difference: `Some(a - b)` when both operands are
/// (constant offsets of) the same base expression. Unlike simplifying the
/// tree `a - b`, this never recurses into the full simplifier, so it is safe
/// to call at every min/max node without superlinear blowup.
fn const_diff(a: &Expr, b: &Expr) -> Option<i64> {
    if let (Some(ca), Some(cb)) = (a.as_const_int(), b.as_const_int()) {
        return Some(ca - cb);
    }
    let (base_a, ca) = split_add_const(a);
    let (base_b, cb) = split_add_const(b);
    if base_a == base_b {
        Some(ca - cb)
    } else {
        None
    }
}

impl Simplifier {
    /// Runs `f` with `name` bound to (already simplified) `value` in the let
    /// scope, restoring the previous binding state afterwards.
    fn with_let<R>(&mut self, name: &str, value: &Expr, f: impl FnOnce(&mut Self) -> R) -> R {
        let saved = self.lets.enter(name, value);
        let out = f(self);
        self.lets.exit(name, saved);
        out
    }

    /// `Some(a - b)` when resolving both operands through the visible let
    /// bindings exposes a constant difference that the purely structural
    /// [`const_diff`] could not see.
    fn let_resolved_const_diff(&self, a: &Expr, b: &Expr) -> Option<i64> {
        if self.lets.is_empty() || self.lets.cannot_share_base(a, b) {
            return None;
        }
        let ra = self.lets.resolve(a);
        let rb = self.lets.resolve(b);
        if ra == *a && rb == *b {
            return None; // neither side referenced a tracked let
        }
        const_diff(&ra, &rb)
    }

    fn simplify_bin(&mut self, op: BinOp, a: Expr, b: Expr, original: &Expr) -> Expr {
        let ty = original.ty();
        // Constant folding.
        if let (Some(ca), Some(cb)) = (a.as_const_f64(), b.as_const_f64()) {
            if ty.is_float() {
                return Expr::imm_of(ty, fold_f64(op, ca, cb));
            } else if let (Some(ia), Some(ib)) = (a.as_const_int(), b.as_const_int()) {
                return Expr::imm_of(ty, fold_int(op, ia, ib) as f64);
            }
        }

        // Algebraic identities (all valid for ints and floats used here).
        match op {
            BinOp::Add => {
                if a.is_zero() {
                    return b;
                }
                if b.is_zero() {
                    return a;
                }
                // (x + c1) + c2 -> x + (c1 + c2); helps bounds expressions collapse.
                if let (
                    ExprNode::Bin {
                        op: BinOp::Add,
                        a: x,
                        b: c1,
                    },
                    Some(c2),
                ) = (a.node(), b.as_const_int())
                {
                    if let Some(c1v) = c1.as_const_int() {
                        if !ty.is_float() {
                            return self
                                .mutate_expr(&(x.clone() + Expr::imm_of(ty, (c1v + c2) as f64)));
                        }
                    }
                }
                // (x - c1) + c2 -> x + (c2 - c1)
                if let (
                    ExprNode::Bin {
                        op: BinOp::Sub,
                        a: x,
                        b: c1,
                    },
                    Some(c2),
                ) = (a.node(), b.as_const_int())
                {
                    if let Some(c1v) = c1.as_const_int() {
                        if !ty.is_float() {
                            return self
                                .mutate_expr(&(x.clone() + Expr::imm_of(ty, (c2 - c1v) as f64)));
                        }
                    }
                }
                // c + x -> x + c  (canonical order: constant on the right)
                if a.as_const_f64().is_some() && b.as_const_f64().is_none() {
                    return self.simplify_bin(BinOp::Add, b, a, original);
                }
            }
            BinOp::Sub => {
                if b.is_zero() {
                    return a;
                }
                if a == b {
                    return Expr::zero(ty);
                }
                // (x + c1) - c2 -> x + (c1 - c2)
                if let (
                    ExprNode::Bin {
                        op: BinOp::Add,
                        a: x,
                        b: c1,
                    },
                    Some(c2),
                ) = (a.node(), b.as_const_int())
                {
                    if let Some(c1v) = c1.as_const_int() {
                        if !ty.is_float() {
                            return self
                                .mutate_expr(&(x.clone() + Expr::imm_of(ty, (c1v - c2) as f64)));
                        }
                    }
                }
                // (x + y) - x -> y  and  (x + y) - y -> x
                if let ExprNode::Bin {
                    op: BinOp::Add,
                    a: x,
                    b: y,
                } = a.node()
                {
                    if *x == b {
                        return y.clone();
                    }
                    if *y == b {
                        return x.clone();
                    }
                }
                // Canonicalize subtraction of a signed-integer constant into
                // addition of its negation, so offsets combine across nested
                // expressions (important for the monotonicity checks in the
                // sliding-window pass).
                if matches!(ty.scalar(), crate::types::ScalarType::Int(_)) {
                    if let Some(c) = b.as_const_int() {
                        if b.node() != a.node() {
                            return self.mutate_expr(&(a + Expr::imm_of(ty, -c as f64)));
                        }
                    }
                    // (x + c1) - (y + c2) -> (x - y) + (c1 - c2)
                    if let (
                        ExprNode::Bin {
                            op: BinOp::Add,
                            a: x,
                            b: c1,
                        },
                        ExprNode::Bin {
                            op: BinOp::Add,
                            a: y,
                            b: c2,
                        },
                    ) = (a.node(), b.node())
                    {
                        if let (Some(c1v), Some(c2v)) = (c1.as_const_int(), c2.as_const_int()) {
                            return self.mutate_expr(
                                &((x.clone() - y.clone()) + Expr::imm_of(ty, (c1v - c2v) as f64)),
                            );
                        }
                    }
                    // x - (y + c) -> (x - y) - c
                    if let ExprNode::Bin {
                        op: BinOp::Add,
                        a: y,
                        b: c,
                    } = b.node()
                    {
                        if let Some(cv) = c.as_const_int() {
                            return self.mutate_expr(
                                &((a.clone() - y.clone()) + Expr::imm_of(ty, -cv as f64)),
                            );
                        }
                    }
                    // (x + c) - y -> (x - y) + c
                    if let ExprNode::Bin {
                        op: BinOp::Add,
                        a: x,
                        b: c,
                    } = a.node()
                    {
                        if let Some(cv) = c.as_const_int() {
                            return self.mutate_expr(
                                &((x.clone() - b.clone()) + Expr::imm_of(ty, cv as f64)),
                            );
                        }
                    }
                    // (x*c) - (y*c) -> (x - y)*c
                    if let (
                        ExprNode::Bin {
                            op: BinOp::Mul,
                            a: x,
                            b: c1,
                        },
                        ExprNode::Bin {
                            op: BinOp::Mul,
                            a: y,
                            b: c2,
                        },
                    ) = (a.node(), b.node())
                    {
                        if c1.as_const_int().is_some() && c1.as_const_int() == c2.as_const_int() {
                            return self.mutate_expr(&((x.clone() - y.clone()) * c1.clone()));
                        }
                    }
                }
            }
            BinOp::Mul => {
                if a.is_zero() || b.is_zero() {
                    return Expr::zero(ty);
                }
                if a.is_one() {
                    return b;
                }
                if b.is_one() {
                    return a;
                }
                if a.as_const_f64().is_some() && b.as_const_f64().is_none() {
                    return self.simplify_bin(BinOp::Mul, b, a, original);
                }
            }
            BinOp::Div => {
                if b.is_one() {
                    return a;
                }
                if a.is_zero() {
                    return Expr::zero(ty);
                }
                if a == b {
                    return Expr::one(ty);
                }
            }
            BinOp::Mod => {
                if b.is_one() && !ty.is_float() {
                    return Expr::zero(ty);
                }
            }
            BinOp::Min | BinOp::Max => {
                if a == b {
                    return a;
                }
                // Absorption: min(min(x, y), y) -> min(x, y), same for max.
                // Bounds-inference unions routinely produce these duplicates.
                if let ExprNode::Bin {
                    op: inner,
                    a: x,
                    b: y,
                } = a.node()
                {
                    if *inner == op && (*x == b || *y == b) {
                        return a;
                    }
                }
                if let ExprNode::Bin {
                    op: inner,
                    a: x,
                    b: y,
                } = b.node()
                {
                    if *inner == op && (*x == a || *y == a) {
                        return b;
                    }
                }
                // If the difference of the operands is a known constant the
                // winner is known statically: min(v-1, v+1) -> v-1, etc.
                // This is what collapses the unions produced by bounds
                // inference over stencil footprints. The check is a cheap
                // structural comparison (same base ± constant), deliberately
                // not a recursive re-simplification of `a - b`, which made
                // lowering superlinear on large bounds expressions.
                if !ty.is_float() {
                    if let Some(d) = const_diff(&a, &b) {
                        let a_wins = (op == BinOp::Min) == (d <= 0);
                        return if a_wins { a } else { b };
                    }
                    // Same check through the let scope: `min(f.x.min + 4,
                    // g.x.min)` folds when the visible lets reveal the two
                    // names are constant offsets of one base. The *name* form
                    // is returned, keeping the statement compact.
                    if let Some(d) = self.let_resolved_const_diff(&a, &b) {
                        let a_wins = (op == BinOp::Min) == (d <= 0);
                        return if a_wins { a } else { b };
                    }
                }
                // min(c1, max(x, c2)) -> c1 when c1 <= c2 (max(x, c2) >= c2),
                // and dually max(c1, min(x, c2)) -> c1 when c1 >= c2. This
                // collapses the `min(0, max(extent - factor, 0))` lower bound
                // of a shift-inwards split whose extent may be below the
                // factor (a re-split outer half); without it, bounds
                // expressions grow multiplicatively through chains of such
                // stages. A region dimension's split needs no clamp and
                // bounds inference gives it a closed form instead.
                if !ty.is_float() {
                    let dual = if op == BinOp::Min {
                        BinOp::Max
                    } else {
                        BinOp::Min
                    };
                    let dominated = |c1: Option<i64>, other: &Expr| -> bool {
                        let (
                            Some(c1),
                            ExprNode::Bin {
                                op: inner,
                                a: ia,
                                b: ib,
                            },
                        ) = (c1, other.node())
                        else {
                            return false;
                        };
                        if *inner != dual {
                            return false;
                        }
                        let inner_const = ia.as_const_int().or_else(|| ib.as_const_int());
                        matches!(inner_const, Some(c2) if (op == BinOp::Min && c1 <= c2)
                            || (op == BinOp::Max && c1 >= c2))
                    };
                    if dominated(a.as_const_int(), &b) {
                        return a;
                    }
                    if dominated(b.as_const_int(), &a) {
                        return b;
                    }
                }
                // min(min(x, c1), c2) -> min(x, min(c1, c2)); same for max.
                if let (
                    ExprNode::Bin {
                        op: inner_op,
                        a: x,
                        b: c1,
                    },
                    Some(c2),
                ) = (a.node(), b.as_const_int())
                {
                    if *inner_op == op && !ty.is_float() {
                        if let Some(c1v) = c1.as_const_int() {
                            let folded = if op == BinOp::Min {
                                c1v.min(c2)
                            } else {
                                c1v.max(c2)
                            };
                            return ExprNode::Bin {
                                op,
                                a: x.clone(),
                                b: Expr::imm_of(ty, folded as f64),
                            }
                            .into();
                        }
                    }
                }
            }
        }

        ExprNode::Bin { op, a, b }.into()
    }
}

/// Finds let (statement- or expression-level) rebindings of one name;
/// inlining a variable-valued let whose variable is later rebound would
/// capture the wrong binding, so the inline rules check this first.
struct RebindFinder<'a> {
    name: &'a str,
    found: bool,
}

impl IrVisitor for RebindFinder<'_> {
    fn visit_expr(&mut self, e: &Expr) {
        if self.found {
            return;
        }
        if let ExprNode::Let { name, .. } = e.node() {
            if name == self.name {
                self.found = true;
                return;
            }
        }
        crate::visit::visit_expr_children(self, e);
    }
    fn visit_stmt(&mut self, s: &Stmt) {
        if self.found {
            return;
        }
        if let StmtNode::LetStmt { name, .. } = s.node() {
            if name == self.name {
                self.found = true;
                return;
            }
        }
        crate::visit::visit_stmt_children(self, s);
    }
}

fn stmt_rebinds(s: &Stmt, name: &str) -> bool {
    let mut f = RebindFinder { name, found: false };
    f.visit_stmt(s);
    f.found
}

fn expr_rebinds(e: &Expr, name: &str) -> bool {
    let mut f = RebindFinder { name, found: false };
    f.visit_expr(e);
    f.found
}

impl IrMutator for Simplifier {
    fn mutate_expr(&mut self, e: &Expr) -> Expr {
        // Lets are handled before generic recursion so the binding is in
        // scope while the body is simplified.
        if let ExprNode::Let { name, value, body } = e.node() {
            let nv = self.mutate_expr(value);
            let nb = self.with_let(name, &nv, |s| s.mutate_expr(body));
            // Inline lets whose value is an immediate or a variable; they
            // cost nothing and unlock further folding. A variable value must
            // not be rebound inside the body (capture).
            let inlinable = match nv.node() {
                ExprNode::IntImm { .. } | ExprNode::UIntImm { .. } | ExprNode::FloatImm { .. } => {
                    true
                }
                ExprNode::Var { name: v, .. } => !expr_rebinds(&nb, v),
                _ => false,
            };
            if inlinable {
                let inlined = crate::substitute::substitute(&nb, name, &nv);
                return self.mutate_expr(&inlined);
            }
            return Expr::let_in(name.clone(), nv, nb);
        }
        let e = mutate_expr_children(self, e);
        match e.node() {
            ExprNode::Bin { op, a, b } => self.simplify_bin(*op, a.clone(), b.clone(), &e),
            ExprNode::Cmp { op, a, b } => {
                if a.ty().is_float() || b.ty().is_float() {
                    if let (Some(ca), Some(cb)) = (a.as_const_f64(), b.as_const_f64()) {
                        return Expr::bool(fold_cmp_f64(*op, ca, cb));
                    }
                } else if let (Some(ca), Some(cb)) = (a.as_const_int(), b.as_const_int()) {
                    return Expr::bool(fold_cmp_int(*op, ca, cb));
                }
                if a == b {
                    return Expr::bool(matches!(op, CmpOp::Eq | CmpOp::Le | CmpOp::Ge));
                }
                e
            }
            ExprNode::And { a, b } => match (a.as_const_int(), b.as_const_int()) {
                (Some(0), _) | (_, Some(0)) => Expr::bool(false),
                (Some(_), Some(_)) => Expr::bool(true),
                (Some(_), None) => b.clone(),
                (None, Some(_)) => a.clone(),
                _ => e,
            },
            ExprNode::Or { a, b } => match (a.as_const_int(), b.as_const_int()) {
                (Some(x), _) if x != 0 => Expr::bool(true),
                (_, Some(x)) if x != 0 => Expr::bool(true),
                (Some(_), Some(_)) => Expr::bool(false),
                (Some(0), None) => b.clone(),
                (None, Some(0)) => a.clone(),
                _ => e,
            },
            ExprNode::Not { a } => match a.as_const_int() {
                Some(v) => Expr::bool(v == 0),
                None => e,
            },
            ExprNode::Select { cond, t, f } => match cond.as_const_int() {
                Some(0) => f.clone(),
                Some(_) => t.clone(),
                None => {
                    if t == f {
                        t.clone()
                    } else {
                        e
                    }
                }
            },
            ExprNode::Cast { ty, value } => {
                if *ty == value.ty() {
                    return value.clone();
                }
                if let Some(c) = value.as_const_f64() {
                    if ty.is_scalar() {
                        // Clamp-free conversion: truncate toward zero for ints,
                        // matching the executor's cast semantics.
                        return match ty.scalar() {
                            crate::types::ScalarType::Float(_) => Expr::imm_of(*ty, c),
                            crate::types::ScalarType::Int(_) => Expr::imm_of(*ty, c.trunc()),
                            crate::types::ScalarType::UInt(_) => {
                                Expr::imm_of(*ty, c.trunc().max(0.0))
                            }
                        };
                    }
                }
                e
            }
            _ => e,
        }
    }

    fn mutate_stmt(&mut self, s: &Stmt) -> Stmt {
        // Lets are handled before generic recursion so the binding is in
        // scope while the body is simplified.
        if let StmtNode::LetStmt { name, value, body } = s.node() {
            let nv = self.mutate_expr(value);
            let nb = self.with_let(name, &nv, |sim| sim.mutate_stmt(body));
            // Drop dead lets; inline trivial ones (immediates always,
            // variables unless the body rebinds the variable).
            if !stmt_uses_var(&nb, name) {
                return nb;
            }
            let inlinable = match nv.node() {
                ExprNode::IntImm { .. } | ExprNode::UIntImm { .. } | ExprNode::FloatImm { .. } => {
                    true
                }
                ExprNode::Var { name: v, .. } => !stmt_rebinds(&nb, v),
                _ => false,
            };
            if inlinable {
                let inlined = substitute_in_stmt(&nb, name, &nv);
                return self.mutate_stmt(&inlined);
            }
            return Stmt::let_stmt(name.clone(), nv, nb);
        }
        let s = mutate_stmt_children(self, s);
        match s.node() {
            StmtNode::IfThenElse {
                condition,
                then_case,
                else_case,
            } => match condition.as_const_int() {
                Some(0) => else_case.clone().unwrap_or_else(Stmt::no_op),
                Some(_) => then_case.clone(),
                None => s.clone(),
            },
            StmtNode::For { extent, body, .. } => {
                if extent.as_const_int() == Some(0) || body.is_no_op() {
                    Stmt::no_op()
                } else {
                    s.clone()
                }
            }
            StmtNode::Assert { condition, .. } => {
                if condition.as_const_int().map(|v| v != 0).unwrap_or(false) {
                    Stmt::no_op()
                } else {
                    s.clone()
                }
            }
            _ => s.clone(),
        }
    }
}

/// Simplifies an expression.
///
/// # Examples
///
/// ```
/// use halide_ir::{simplify, Expr};
/// let x = Expr::var_i32("x");
/// let e = (x.clone() + 0) * 1 + (Expr::int(2) + 3);
/// assert_eq!(simplify(&e).to_string(), "(x + 5)");
/// ```
pub fn simplify(e: &Expr) -> Expr {
    Simplifier::default().mutate_expr(e)
}

/// Simplifies a statement (also folds expressions nested inside it).
///
/// Statement simplification is *scope-carrying*: while simplifying the body
/// of a `let`, the binding's (resolved) value is visible, so min/max terms
/// over let-bound bounds names — `min(f.x.min + 4, g.x.min)` — fold to the
/// winning name whenever the bindings reveal a constant difference. Dead
/// lets are dropped and immediate- or variable-valued lets are inlined.
pub fn simplify_stmt(s: &Stmt) -> Stmt {
    Simplifier::default().mutate_stmt(s)
}

/// Convenience: simplify, then require a constant integer result.
pub fn const_int(e: &Expr) -> Option<i64> {
    simplify(e).as_const_int()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stmt::ForKind;
    use crate::types::Type;

    #[test]
    fn floor_division_semantics() {
        assert_eq!(div_floor(7, 2), 3);
        assert_eq!(div_floor(-7, 2), -4);
        assert_eq!(div_floor(-8, 2), -4);
        assert_eq!(mod_floor(-7, 3), 2);
        assert_eq!(mod_floor(7, 3), 1);
        assert_eq!(div_floor(5, 0), 0);
        assert_eq!(mod_floor(5, 0), 0);
    }

    #[test]
    fn constant_folding() {
        assert_eq!(simplify(&(Expr::int(2) + 3)).as_const_int(), Some(5));
        assert_eq!(simplify(&(Expr::int(10) / 4)).as_const_int(), Some(2));
        assert_eq!(simplify(&(Expr::f32(1.5) * 2.0)).as_const_f64(), Some(3.0));
        assert_eq!(
            simplify(&Expr::min(Expr::int(3), Expr::int(7))).as_const_int(),
            Some(3)
        );
    }

    #[test]
    fn identities() {
        let x = Expr::var_i32("x");
        assert_eq!(simplify(&(x.clone() + 0)).to_string(), "x");
        assert_eq!(simplify(&(x.clone() * 1)).to_string(), "x");
        assert_eq!(simplify(&(x.clone() * 0)).as_const_int(), Some(0));
        assert_eq!(simplify(&(x.clone() - x.clone())).as_const_int(), Some(0));
        assert_eq!(simplify(&(x.clone() / 1)).to_string(), "x");
        assert_eq!(simplify(&(x.clone() % 1)).as_const_int(), Some(0));
        assert_eq!(simplify(&Expr::min(x.clone(), x.clone())).to_string(), "x");
    }

    #[test]
    fn nested_constant_addition_collapses() {
        let x = Expr::var_i32("x");
        let e = ((x.clone() + 1) + 2) + 3;
        assert_eq!(simplify(&e).to_string(), "(x + 6)");
        let e2 = (x.clone() - 1) + 4;
        assert_eq!(simplify(&e2).to_string(), "(x + 3)");
        let e3 = (x + 5) - 2;
        assert_eq!(simplify(&e3).to_string(), "(x + 3)");
    }

    #[test]
    fn select_and_bool_folding() {
        let x = Expr::var_i32("x");
        let s = Expr::select(Expr::bool(true), x.clone(), Expr::int(0));
        assert_eq!(simplify(&s).to_string(), "x");
        let c = Expr::and(Expr::bool(false), Expr::lt(x.clone(), Expr::int(3)));
        assert_eq!(simplify(&c).as_const_int(), Some(0));
        let c2 = Expr::or(Expr::bool(true), Expr::lt(x, Expr::int(3)));
        assert_eq!(simplify(&c2).as_const_int(), Some(1));
        assert_eq!(
            simplify(&Expr::not(Expr::bool(false))).as_const_int(),
            Some(1)
        );
    }

    #[test]
    fn cmp_folding() {
        assert_eq!(
            simplify(&Expr::lt(Expr::int(1), Expr::int(2))).as_const_int(),
            Some(1)
        );
        assert_eq!(
            simplify(&Expr::ge(Expr::int(1), Expr::int(2))).as_const_int(),
            Some(0)
        );
        let x = Expr::var_i32("x");
        assert_eq!(simplify(&Expr::le(x.clone(), x)).as_const_int(), Some(1));
    }

    #[test]
    fn cast_folding() {
        let e = Expr::f32(3.7).cast(Type::i32());
        assert_eq!(simplify(&e).as_const_int(), Some(3));
        let e = Expr::int(-2).cast(Type::u8());
        assert_eq!(simplify(&e).as_const_int(), Some(0));
    }

    #[test]
    fn let_inlining() {
        let e = Expr::let_in("t", Expr::int(3), Expr::var_i32("t") + 4);
        assert_eq!(simplify(&e).as_const_int(), Some(7));
    }

    #[test]
    fn stmt_simplification() {
        let dead = Stmt::let_stmt(
            "unused",
            Expr::var_i32("q") + 1,
            Stmt::evaluate(Expr::int(0)),
        );
        assert!(matches!(
            simplify_stmt(&dead).node(),
            StmtNode::Evaluate { .. }
        ));

        let zero_loop = Stmt::for_loop(
            "i",
            Expr::int(0),
            Expr::int(0),
            ForKind::Serial,
            Stmt::store("b", Expr::int(1), Expr::int(0)),
        );
        assert!(simplify_stmt(&zero_loop).is_no_op());

        let branch = Stmt::if_then_else(
            Expr::lt(Expr::int(1), Expr::int(2)),
            Stmt::evaluate(Expr::int(1)),
            Some(Stmt::evaluate(Expr::int(2))),
        );
        assert!(matches!(
            simplify_stmt(&branch).node(),
            StmtNode::Evaluate { value } if value.as_const_int() == Some(1)
        ));
    }

    #[test]
    fn min_of_const_and_dominating_max_folds() {
        // Regression: `min(0, max(e - f, 0))` is the guard a shift-inwards
        // split of a re-split outer half emits; it must fold to 0 or bounds
        // expressions grow multiplicatively through chains of split stages.
        let e = Expr::var_i32("e");
        let guard = Expr::min(Expr::int(0), Expr::max(e.clone() - 16, Expr::int(0)));
        assert_eq!(simplify(&guard).as_const_int(), Some(0));
        // Operand order must not matter.
        let guard = Expr::min(Expr::max(e.clone() - 16, Expr::int(0)), Expr::int(0));
        assert_eq!(simplify(&guard).as_const_int(), Some(0));
        // The dual: max(c1, min(x, c2)) -> c1 when c1 >= c2.
        let dual = Expr::max(Expr::int(3), Expr::min(e.clone(), Expr::int(2)));
        assert_eq!(simplify(&dual).as_const_int(), Some(3));
        // Not dominated: stays symbolic.
        let keep = Expr::min(Expr::int(5), Expr::max(e, Expr::int(2)));
        assert!(simplify(&keep).as_const_int().is_none());
    }

    #[test]
    fn min_of_const_offsets_folds_for_signed_not_unsigned() {
        // Signed: min(x - 1, x + 1) -> x - 1 (non-wrapping arithmetic).
        let x = Expr::var_i32("x");
        let e = Expr::min(x.clone() - 1, x.clone() + 1);
        assert_eq!(simplify(&e).to_string(), "(x - 1)");
        // Unsigned: x - 1 wraps at 0, so the fold must NOT fire.
        let u = Expr::var("u", Type::u32());
        let one = Expr::imm_of(Type::u32(), 1.0);
        let e = Expr::min(u.clone() - one.clone(), u + one);
        assert!(simplify(&e).to_string().starts_with("min("));
    }

    #[test]
    fn min_max_absorption() {
        // Regression: bounds-inference unions produce `min(min(x, y), y)`
        // shapes whose duplicates must be absorbed.
        let x = Expr::var_i32("x");
        let y = Expr::var_i32("y") * 2;
        let nested = Expr::min(Expr::min(x.clone(), y.clone()), y.clone());
        assert_eq!(simplify(&nested).to_string(), "min(x, (y*2))");
        let nested = Expr::max(y.clone(), Expr::max(x.clone(), y.clone()));
        assert_eq!(simplify(&nested).to_string(), "max(x, (y*2))");
    }

    #[test]
    fn let_scoped_min_max_folds_across_bound_names() {
        // `g.x.min` is let-bound to `f.x.min - 1`, so
        // `min(f.x.min + 4, g.x.min)` must fold to `g.x.min` (difference 5)
        // while keeping the compact name form in the output.
        let fmin = Expr::var_i32("f.x.min");
        let gmin = Expr::var_i32("g.x.min");
        let s = Stmt::let_stmt(
            "g.x.min",
            fmin.clone() - 1,
            Stmt::store(
                "buf",
                Expr::int(0),
                Expr::min(fmin.clone() + 4, gmin.clone()),
            ),
        );
        let out = simplify_stmt(&s).to_string();
        assert!(out.contains("buf[g.x.min] = 0"), "got:\n{out}");
        // The dual max picks the larger side.
        let s = Stmt::let_stmt(
            "g.x.min",
            fmin.clone() - 1,
            Stmt::store("buf", Expr::int(0), Expr::max(fmin.clone() + 4, gmin)),
        );
        let out = simplify_stmt(&s).to_string();
        assert!(out.contains("buf[(f.x.min + 4)] = 0"), "got:\n{out}");
    }

    #[test]
    fn let_scoped_fold_resolves_through_chained_lets() {
        // h.x.min = g.x.min + 2 = (f.x.min - 1) + 2: resolution is transitive
        // because each value is resolved against the bindings enclosing it.
        let fmin = Expr::var_i32("f.x.min");
        let s = Stmt::let_stmt(
            "g.x.min",
            fmin.clone() - 1,
            Stmt::let_stmt(
                "h.x.min",
                Expr::var_i32("g.x.min") + 2,
                Stmt::store(
                    "buf",
                    Expr::int(0),
                    Expr::min(Expr::var_i32("h.x.min"), fmin.clone() + 9),
                ),
            ),
        );
        let out = simplify_stmt(&s).to_string();
        assert!(out.contains("buf[h.x.min] = 0"), "got:\n{out}");
    }

    #[test]
    fn let_scoped_fold_respects_shadowing() {
        // The inner rebinding of g.x.min moves it far ABOVE f.x.min + 4; a
        // simplifier that kept using the outer binding would fold the min the
        // wrong way.
        let fmin = Expr::var_i32("f.x.min");
        let gmin = Expr::var_i32("g.x.min");
        let s = Stmt::let_stmt(
            "g.x.min",
            fmin.clone() - 1,
            Stmt::let_stmt(
                "g.x.min",
                fmin.clone() + 100,
                Stmt::store(
                    "buf",
                    Expr::int(0),
                    Expr::min(fmin.clone() + 4, gmin.clone()),
                ),
            ),
        );
        let out = simplify_stmt(&s).to_string();
        assert!(out.contains("buf[(f.x.min + 4)] = 0"), "got:\n{out}");
    }

    #[test]
    fn unresolvable_let_min_stays_symbolic() {
        // The two names have no constant difference (different bases).
        let s = Stmt::let_stmt(
            "g.x.min",
            Expr::var_i32("other") * 2,
            Stmt::store(
                "buf",
                Expr::int(0),
                Expr::min(Expr::var_i32("f.x.min"), Expr::var_i32("g.x.min")),
            ),
        );
        let out = simplify_stmt(&s).to_string();
        assert!(out.contains("min(f.x.min, g.x.min)"), "got:\n{out}");
    }

    #[test]
    fn variable_valued_stmt_lets_are_inlined() {
        let s = Stmt::let_stmt(
            "alias",
            Expr::var_i32("src"),
            Stmt::store("buf", Expr::int(1), Expr::var_i32("alias")),
        );
        let out = simplify_stmt(&s).to_string();
        assert!(out.contains("buf[src] = 1"), "got:\n{out}");
    }

    #[test]
    fn min_max_const_chains() {
        let x = Expr::var_i32("x");
        let e = Expr::min(Expr::min(x.clone(), Expr::int(5)), Expr::int(3));
        assert_eq!(simplify(&e).to_string(), "min(x, 3)");
        let e = Expr::max(Expr::max(x, Expr::int(5)), Expr::int(3));
        assert_eq!(simplify(&e).to_string(), "max(x, 5)");
    }
}
