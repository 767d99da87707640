//! Loop-invariant mask hoisting.
//!
//! The predicated pipelines (camera pipe's demosaic, anything built from
//! `select`) evaluate boolean masks on every iteration of the loops that
//! enclose them, even when the mask does not depend on the loop variable at
//! all — e.g. `select(c == 0, …)` inside the per-pixel loops of a
//! colour-matrix stage, or the broadcast half of a vectorized Bayer-phase
//! test. This pass finds such masks and binds them to `LetStmt`s at the head
//! of the loop body, **the same mechanism bounds inference already uses**:
//! both execution engines peel a loop body's leading invariant `let`s and
//! evaluate them once per loop entry (`peel_invariant_lets` in
//! `halide-exec`), so a hoisted mask is computed once per entry instead of
//! once per iteration — in the interpreter and in the compiled register
//! machine alike, which keeps their instruction counters identical.
//!
//! Hoisting is deliberately conservative. A candidate must be:
//!
//! * the condition of a `Select` (or an `&&`/`||`/`!` operand or broadcast
//!   inside one) — masks, not arbitrary arithmetic;
//! * invariant: it references neither the loop variable nor **any** name
//!   bound anywhere inside the loop body (which also rules out shadowing
//!   capture at every occurrence);
//! * load-free and call-free, so evaluation order cannot change observable
//!   behaviour;
//! * division-safe: `/` and `%` only by non-zero constants, so eager
//!   evaluation cannot fault on an iteration that would have skipped it.

use std::collections::HashSet;

use halide_ir::{
    expr_uses_var, free_vars, mutate_expr_children, mutate_stmt_children, BinOp, Expr, ExprNode,
    IrMutator, IrVisitor, Stmt, StmtNode,
};

/// Binds loop-invariant select conditions to `let`s at loop-body heads, so
/// the engines' invariant-let peeling evaluates each mask once per loop
/// entry. Returns the rewritten statement.
pub fn hoist_invariant_masks(stmt: &Stmt) -> Stmt {
    let mut pass = HoistMasks;
    pass.mutate_stmt(stmt)
}

struct HoistMasks;

impl IrMutator for HoistMasks {
    fn mutate_stmt(&mut self, s: &Stmt) -> Stmt {
        // Children first: masks hoisted out of an inner loop become ordinary
        // leading lets the outer traversal leaves alone.
        let s = mutate_stmt_children(self, s);
        let StmtNode::For {
            name,
            min,
            extent,
            kind,
            body,
        } = s.node()
        else {
            return s;
        };
        let tainted = names_bound_inside(body);
        let mut finder = FindMasks {
            loop_var: name,
            tainted: &tainted,
            found: Vec::new(),
        };
        finder.visit_stmt(body);
        if finder.found.is_empty() {
            return s;
        }
        // Replace every occurrence of each mask with its fresh name, then
        // bind the masks at the very head of the body (their free variables
        // are all bound outside the loop, so they precede the existing
        // leading lets safely — and get peeled together with them).
        //
        // Largest masks are replaced first: when one hoistable mask is a
        // subexpression of another (`A` and `A && B` both invariant), the
        // big one must be rewritten before the small one destroys its
        // occurrences. A mask whose replacement never fires (e.g. `A` that
        // only occurred inside `A && B`) gets no `let`.
        let mut masks = finder.found;
        masks.sort_by_key(|m| std::cmp::Reverse(halide_ir::expr_node_count(m)));
        let mut new_body = body.clone();
        let mut lets = Vec::new();
        for mask in masks {
            let fresh = format!("{name}.mask{}", lets.len());
            let var = Expr::var(fresh.clone(), mask.ty());
            let mut repl = ReplaceExpr {
                target: &mask,
                with: &var,
                replaced: 0,
            };
            let replaced_body = repl.mutate_stmt(&new_body);
            if repl.replaced > 0 {
                new_body = replaced_body;
                lets.push((fresh, mask));
            }
        }
        for (fresh, mask) in lets.into_iter().rev() {
            new_body = Stmt::let_stmt(fresh, mask, new_body);
        }
        Stmt::for_loop(name.clone(), min.clone(), extent.clone(), *kind, new_body)
    }
}

/// Collects the select conditions (or their conjunct/disjunct/broadcast
/// parts) that are hoistable out of the enclosing loop.
struct FindMasks<'a> {
    loop_var: &'a str,
    tainted: &'a HashSet<String>,
    found: Vec<Expr>,
}

impl FindMasks<'_> {
    /// Records `e` if hoistable, else recurses into its boolean structure so
    /// the invariant half of a mixed mask (`variant && invariant`) still
    /// hoists.
    fn consider(&mut self, e: &Expr) {
        if self.hoistable(e) {
            if !self.found.contains(e) {
                self.found.push(e.clone());
            }
            return;
        }
        match e.node() {
            ExprNode::And { a, b } | ExprNode::Or { a, b } => {
                self.consider(a);
                self.consider(b);
            }
            ExprNode::Not { a } => self.consider(a),
            ExprNode::Broadcast { value, .. } => self.consider(value),
            _ => {}
        }
    }

    /// True if `e` is a non-trivial, invariant, load/call-free,
    /// division-safe expression.
    fn hoistable(&self, e: &Expr) -> bool {
        if matches!(
            e.node(),
            ExprNode::IntImm { .. }
                | ExprNode::UIntImm { .. }
                | ExprNode::FloatImm { .. }
                | ExprNode::Var { .. }
        ) {
            return false; // leaves cost nothing; a let would be pure overhead
        }
        if expr_uses_var(e, self.loop_var) {
            return false;
        }
        if free_vars(e).iter().any(|v| self.tainted.contains(v)) {
            return false;
        }
        safe_to_evaluate_eagerly(e)
    }
}

impl IrVisitor for FindMasks<'_> {
    fn visit_expr(&mut self, e: &Expr) {
        if let ExprNode::Select { cond, .. } = e.node() {
            self.consider(cond);
        }
        halide_ir::visit_expr_children(self, e);
    }
}

/// True if evaluating `e` unconditionally is indistinguishable from
/// evaluating it lazily: no loads, no calls, no inner lets, and no division
/// or modulo that could fault (only non-zero constant divisors qualify).
fn safe_to_evaluate_eagerly(e: &Expr) -> bool {
    struct Safety {
        safe: bool,
    }
    impl IrVisitor for Safety {
        fn visit_expr(&mut self, e: &Expr) {
            if !self.safe {
                return;
            }
            match e.node() {
                ExprNode::Load { .. } | ExprNode::Call { .. } | ExprNode::Let { .. } => {
                    self.safe = false;
                    return;
                }
                ExprNode::Bin {
                    op: BinOp::Div | BinOp::Mod,
                    b,
                    ..
                } if halide_ir::const_int(b).is_none_or(|v| v == 0) => {
                    self.safe = false;
                    return;
                }
                _ => {}
            }
            halide_ir::visit_expr_children(self, e);
        }
    }
    let mut s = Safety { safe: true };
    s.visit_expr(e);
    s.safe
}

/// Every name bound anywhere inside `s`: statement and expression `let`s and
/// nested loop variables. A mask referencing any of these is not invariant
/// (or could be captured by shadowing) and is left alone.
fn names_bound_inside(s: &Stmt) -> HashSet<String> {
    struct Binders {
        names: HashSet<String>,
    }
    impl IrVisitor for Binders {
        fn visit_stmt(&mut self, s: &Stmt) {
            match s.node() {
                StmtNode::LetStmt { name, .. } | StmtNode::For { name, .. } => {
                    self.names.insert(name.clone());
                }
                _ => {}
            }
            halide_ir::visit_stmt_children(self, s);
        }
        fn visit_expr(&mut self, e: &Expr) {
            if let ExprNode::Let { name, .. } = e.node() {
                self.names.insert(name.clone());
            }
            halide_ir::visit_expr_children(self, e);
        }
    }
    let mut b = Binders {
        names: HashSet::new(),
    };
    b.visit_stmt(s);
    b.names
}

/// Replaces every occurrence of one (invariant, uncapturable) expression
/// with a variable reference, counting how many occurrences it found.
struct ReplaceExpr<'a> {
    target: &'a Expr,
    with: &'a Expr,
    replaced: usize,
}

impl IrMutator for ReplaceExpr<'_> {
    fn mutate_expr(&mut self, e: &Expr) -> Expr {
        if e == self.target {
            self.replaced += 1;
            return self.with.clone();
        }
        mutate_expr_children(self, e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use halide_ir::{ForKind, Type};

    fn select_store(cond: Expr) -> Stmt {
        Stmt::store(
            "out",
            Expr::select(cond, Expr::f32(1.0), Expr::f32(0.0)),
            Expr::var_i32("x"),
        )
    }

    fn x_loop(body: Stmt) -> Stmt {
        Stmt::for_loop("x", Expr::int(0), Expr::int(8), ForKind::Serial, body)
    }

    #[test]
    fn invariant_select_condition_is_hoisted() {
        let cond = Expr::eq(Expr::var_i32("c"), Expr::int(0));
        let out = hoist_invariant_masks(&x_loop(select_store(cond.clone())));
        let StmtNode::For { body, .. } = out.node() else {
            panic!("loop survived")
        };
        let StmtNode::LetStmt { name, value, .. } = body.node() else {
            panic!("expected a hoisted mask let, got {body}")
        };
        assert_eq!(name, "x.mask0");
        assert_eq!(*value, cond);
        assert!(body.to_string().contains("select(x.mask0"));
    }

    #[test]
    fn variant_condition_stays_and_invariant_conjunct_hoists() {
        // (x % 2 == 1) && (y % 2 == 0): only the y half is invariant in x.
        let vx = Expr::eq(Expr::var_i32("x") % 2, Expr::int(1));
        let vy = Expr::eq(Expr::var_i32("y") % 2, Expr::int(0));
        let out = hoist_invariant_masks(&x_loop(select_store(Expr::and(vx, vy))));
        let text = out.to_string();
        assert!(text.contains("let x.mask0 = ((y % 2) == 0)"), "{text}");
        assert!(text.contains("((x % 2) == 1) && x.mask0"), "{text}");
    }

    #[test]
    fn masks_referencing_inner_bindings_are_left_alone() {
        // The condition references a let bound inside the body (and thus
        // possibly loop-dependent): no hoist.
        let cond = Expr::eq(Expr::var_i32("t"), Expr::int(0));
        let body = Stmt::let_stmt("t", Expr::var_i32("x") * 2, select_store(cond));
        let out = hoist_invariant_masks(&x_loop(body));
        assert!(!out.to_string().contains("mask"), "{out}");
    }

    #[test]
    fn loads_calls_and_unsafe_divisions_do_not_hoist() {
        let load_cond = Expr::gt(
            Expr::load(Type::f32(), "lut", Expr::var_i32("c")),
            Expr::f32(0.0),
        );
        let div_cond = Expr::eq(Expr::var_i32("c") / Expr::var_i32("d"), Expr::int(0));
        for cond in [load_cond, div_cond] {
            let out = hoist_invariant_masks(&x_loop(select_store(cond)));
            assert!(!out.to_string().contains("mask"), "{out}");
        }
        // A constant divisor is safe.
        let safe = Expr::eq(Expr::var_i32("c") / 4, Expr::int(0));
        let out = hoist_invariant_masks(&x_loop(select_store(safe)));
        assert!(out.to_string().contains("x.mask0"), "{out}");
    }

    #[test]
    fn nested_masks_hoist_largest_first_without_dead_lets() {
        // `A` and `A && B` are both invariant; `A` appears only inside the
        // conjunction. The conjunction must hoist as one mask, and no dead
        // let for `A` may be emitted.
        let a = Expr::eq(Expr::var_i32("y") % 2, Expr::int(0));
        let b = Expr::eq(Expr::var_i32("c"), Expr::int(0));
        let two = Stmt::block_of(vec![
            select_store(a.clone()),
            Stmt::store(
                "out2",
                Expr::select(Expr::and(a, b), Expr::f32(2.0), Expr::f32(3.0)),
                Expr::var_i32("x"),
            ),
        ]);
        let out = hoist_invariant_masks(&x_loop(two));
        let text = out.to_string();
        // The conjunction is replaced whole (mask0 = the && expression),
        // and the bare `A` select uses its own hoisted name.
        assert_eq!(text.matches("let x.mask").count(), 2, "{text}");
        assert!(
            text.contains("select(x.mask0") && text.contains("select(x.mask1"),
            "{text}"
        );
        // No `&&` survives in a select condition: the big mask was rewritten
        // before the small one could shadow it.
        assert!(!text.contains("select(("), "{text}");
    }

    #[test]
    fn duplicate_masks_bind_once() {
        let cond = Expr::eq(Expr::var_i32("c"), Expr::int(0));
        let two = Stmt::block_of(vec![
            select_store(cond.clone()),
            Stmt::store(
                "out2",
                Expr::select(cond, Expr::f32(2.0), Expr::f32(3.0)),
                Expr::var_i32("x"),
            ),
        ]);
        let out = hoist_invariant_masks(&x_loop(two));
        let text = out.to_string();
        assert_eq!(text.matches("let x.mask0").count(), 1, "{text}");
        assert!(!text.contains("mask1"), "{text}");
        assert_eq!(text.matches("select(x.mask0").count(), 2, "{text}");
    }

    #[test]
    fn nested_loops_hoist_to_the_innermost_invariant_level() {
        let cond = Expr::eq(Expr::var_i32("y") % 2, Expr::int(0));
        let inner = x_loop(select_store(cond));
        let outer = Stmt::for_loop("y", Expr::int(0), Expr::int(4), ForKind::Serial, inner);
        let out = hoist_invariant_masks(&outer);
        let text = out.to_string();
        // Hoisted out of the x loop (invariant there), not out of y.
        assert!(text.contains("let x.mask0"), "{text}");
        let StmtNode::For { body, .. } = out.node() else {
            panic!()
        };
        assert!(
            matches!(body.node(), StmtNode::For { .. }),
            "mask must not hoist past the y loop: {text}"
        );
    }

    #[test]
    fn comparisons_over_vectors_hoist_with_their_broadcasts() {
        let mask = Expr::eq(
            Expr::ramp(Expr::var_i32("y"), Expr::int(1), 4) % 2,
            Expr::broadcast(Expr::int(0), 4),
        );
        let out = hoist_invariant_masks(&x_loop(select_store(mask)));
        assert!(out.to_string().contains("x.mask0"), "{out}");
    }
}
