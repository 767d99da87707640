//! Vectorization and unrolling (Sec. 4.5).
//!
//! A loop scheduled `vectorized` with constant extent *n* is eliminated: each
//! occurrence of its variable is replaced by the vector `ramp(min, 1, n)`,
//! turning scalar arithmetic into *n*-wide vector arithmetic, dense loads and
//! stores into vector loads/stores, and gathers/scatters where the index is
//! not affine. Because the language has no divergent control flow this is
//! always well defined; scalars that meet vectors are broadcast by the
//! value semantics of the executor.
//!
//! A loop scheduled `unrolled` with constant extent *n* is replaced by *n*
//! copies of its body with the loop variable bound to `min + i`.

use halide_ir::{
    const_int, mutate_expr_children, mutate_stmt_children, substitute_in_stmt, visit_expr_children,
    Expr, ExprNode, ForKind, IrMutator, IrVisitor, LetResolver, Stmt, StmtNode,
};

use crate::error::{LowerError, Result};

/// The widest vector the backend accepts. Wider vectorize factors are almost
/// certainly schedule bugs (or autotuner excess) and are rejected.
pub const MAX_VECTOR_LANES: i64 = 4096;

// The engines carry a vector's lane count in a `u16`, which is the real
// ceiling on this limit.
const _: () = assert!(MAX_VECTOR_LANES <= u16::MAX as i64);

/// How many times a loop may be unrolled before we refuse (guards against
/// code-size explosion from careless schedules).
pub const MAX_UNROLL: i64 = 64;

struct VectorizeUnroll {
    error: Option<LowerError>,
    /// Let bindings enclosing the current node (shadowing- and
    /// budget-aware, see [`LetResolver`]). A vectorized/unrolled loop
    /// extent that is a `<func>.<dim>.extent` name resolves through this to
    /// the constant the schedule promised.
    lets: LetResolver,
}

impl VectorizeUnroll {
    /// The constant value of `extent`, if it is constant either structurally
    /// or after resolving let-bound names.
    fn extent_const(&self, extent: &Expr) -> Option<i64> {
        const_int(extent).or_else(|| const_int(&self.lets.resolve(extent)))
    }
}

impl IrMutator for VectorizeUnroll {
    fn mutate_stmt(&mut self, s: &Stmt) -> Stmt {
        if self.error.is_some() {
            return s.clone();
        }
        if let StmtNode::LetStmt { name, value, body } = s.node() {
            let saved = self.lets.enter(name, value);
            let nb = self.mutate_stmt(body);
            self.lets.exit(name, saved);
            return if nb == *body {
                s.clone()
            } else {
                Stmt::let_stmt(name.clone(), value.clone(), nb)
            };
        }
        if let StmtNode::For {
            name,
            min,
            extent,
            kind,
            body,
        } = s.node()
        {
            match kind {
                ForKind::Vectorized => {
                    let Some(n) = self.extent_const(extent) else {
                        self.error = Some(LowerError::new(format!(
                            "vectorized loop {name:?} must have a constant extent, but its \
                             extent is {extent}; split the dimension by a constant factor and \
                             vectorize the inner half. If the factor does not divide the \
                             extent, pick a tail strategy on the split: guard_with_if (scalar \
                             epilogue, works anywhere), predicate (masked full-width tail, \
                             works anywhere), or round_up (no tail, interior functions only)"
                        )));
                        return s.clone();
                    };
                    if n < 1 || n > MAX_VECTOR_LANES {
                        self.error = Some(LowerError::new(format!(
                            "vectorized loop {name:?} has extent {n}, outside 1..={MAX_VECTOR_LANES}"
                        )));
                        return s.clone();
                    }
                    if n == 1 {
                        // A 1-wide vector loop is just the body at the min.
                        let body = substitute_in_stmt(body, name, min);
                        return self.mutate_stmt(&body);
                    }
                    let ramp = Expr::ramp(min.clone(), Expr::int(1), n as u16);
                    let body = substitute_in_stmt(body, name, &ramp);
                    return self.mutate_stmt(&body);
                }
                ForKind::Unrolled => {
                    let Some(n) = self.extent_const(extent) else {
                        self.error = Some(LowerError::new(format!(
                            "unrolled loop {name:?} must have a constant extent, got {extent}"
                        )));
                        return s.clone();
                    };
                    if n < 1 || n > MAX_UNROLL {
                        self.error = Some(LowerError::new(format!(
                            "unrolled loop {name:?} has extent {n}, outside 1..={MAX_UNROLL}"
                        )));
                        return s.clone();
                    }
                    let copies: Vec<Stmt> = (0..n)
                        .map(|i| {
                            let value = halide_ir::simplify(&(min.clone() + Expr::int(i as i32)));
                            let body = substitute_in_stmt(body, name, &value);
                            self.mutate_stmt(&body)
                        })
                        .collect();
                    return Stmt::block_of(copies);
                }
                _ => {}
            }
        }
        halide_ir::mutate_stmt_children(self, s)
    }
}

/// True when `e` is (or contains) a vector value: a ramp or broadcast node,
/// or a variable let-bound to one. `lets` is the stack of enclosing
/// statement-level bindings with their vectorness; lookups take the last
/// (innermost, shadowing) entry.
fn contains_vector(e: &Expr, lets: &[(String, bool)]) -> bool {
    struct Finder<'a> {
        lets: &'a [(String, bool)],
        found: bool,
    }
    impl IrVisitor for Finder<'_> {
        fn visit_expr(&mut self, e: &Expr) {
            if self.found {
                return;
            }
            match e.node() {
                ExprNode::Ramp { .. } | ExprNode::Broadcast { .. } => {
                    self.found = true;
                    return;
                }
                ExprNode::Var { name, .. } => {
                    if let Some((_, v)) = self.lets.iter().rev().find(|(n, _)| n == name) {
                        if *v {
                            self.found = true;
                        }
                    }
                }
                _ => {}
            }
            visit_expr_children(self, e);
        }
    }
    let mut f = Finder { lets, found: false };
    f.visit_expr(e);
    f.found
}

/// Rewrites every load and store in a subtree to carry `cond` as (part of)
/// its lane predicate. Applied to the body of an `if` whose condition became
/// a vector after ramp substitution: a disabled lane must neither fault on
/// an out-of-range access nor write its result.
struct Predicator {
    cond: Expr,
}

impl IrMutator for Predicator {
    fn mutate_expr(&mut self, e: &Expr) -> Expr {
        let e = mutate_expr_children(self, e);
        if let ExprNode::Load {
            ty,
            name,
            index,
            predicate,
        } = e.node()
        {
            let p = match predicate {
                Some(p) => Expr::and(p.clone(), self.cond.clone()),
                None => self.cond.clone(),
            };
            return Expr::load_predicated(*ty, name.clone(), index.clone(), p);
        }
        e
    }

    fn mutate_stmt(&mut self, s: &Stmt) -> Stmt {
        let s = mutate_stmt_children(self, s);
        if let StmtNode::Store {
            name,
            value,
            index,
            predicate,
        } = s.node()
        {
            let p = match predicate {
                Some(p) => Expr::and(p.clone(), self.cond.clone()),
                None => self.cond.clone(),
            };
            return Stmt::store_predicated(name.clone(), value.clone(), index.clone(), p);
        }
        s
    }
}

/// Converts `if`s whose condition became a vector (a predicate-tail guard
/// after ramp substitution) into predicated loads and stores: the branch
/// body executes full-width with the condition as every memory operation's
/// lane mask, and the `if` itself disappears. Pure arithmetic on disabled
/// lanes is harmless — it is never stored, and masked loads feed it zeros
/// instead of faulting.
struct PredicateIfs {
    error: Option<LowerError>,
    /// Enclosing statement-level lets and whether each binds a vector.
    lets: Vec<(String, bool)>,
}

impl IrMutator for PredicateIfs {
    fn mutate_stmt(&mut self, s: &Stmt) -> Stmt {
        if self.error.is_some() {
            return s.clone();
        }
        match s.node() {
            StmtNode::LetStmt { name, value, body } => {
                let is_vec = contains_vector(value, &self.lets);
                self.lets.push((name.clone(), is_vec));
                let nb = self.mutate_stmt(body);
                self.lets.pop();
                if nb == *body {
                    s.clone()
                } else {
                    Stmt::let_stmt(name.clone(), value.clone(), nb)
                }
            }
            StmtNode::IfThenElse {
                condition,
                then_case,
                else_case,
            } if contains_vector(condition, &self.lets) => {
                if else_case.is_some() {
                    self.error = Some(LowerError::new(format!(
                        "an if over the vectorized condition {condition} has an else branch, \
                         which cannot be predicated"
                    )));
                    return s.clone();
                }
                // Inner vector ifs first, so nested guards AND together.
                let t = self.mutate_stmt(then_case);
                Predicator {
                    cond: condition.clone(),
                }
                .mutate_stmt(&t)
            }
            _ => mutate_stmt_children(self, s),
        }
    }
}

/// Binds the index of a vector read-modify-write through a gathered index
/// — a vectorized update's `f[i] = f[i] + 1`, where `i` is data-dependent
/// — to a `let`, so the store and the load share one computation of it:
/// the engines' common-subexpression pass does not touch vectors. A dense
/// (`ramp`) index is left in place, where the engines see it is dense.
struct ShareScatterIndex {
    /// Enclosing statement-level lets and whether each binds a vector.
    lets: Vec<(String, bool)>,
}

impl IrMutator for ShareScatterIndex {
    fn mutate_stmt(&mut self, s: &Stmt) -> Stmt {
        let (name, value, index, predicate) = match s.node() {
            StmtNode::LetStmt { name, value, body } => {
                let is_vec = contains_vector(value, &self.lets);
                self.lets.push((name.clone(), is_vec));
                let nb = self.mutate_stmt(body);
                self.lets.pop();
                return Stmt::let_stmt(name.clone(), value.clone(), nb);
            }
            StmtNode::Store {
                name,
                value,
                index,
                predicate,
            } => (name, value, index, predicate),
            _ => return mutate_stmt_children(self, s),
        };
        if !contains_vector(index, &self.lets)
            || matches!(index.node(), ExprNode::Ramp { .. } | ExprNode::Var { .. })
        {
            return s.clone();
        }
        struct Share<'a> {
            name: &'a str,
            index: &'a Expr,
            var: Expr,
            shared: bool,
        }
        impl IrMutator for Share<'_> {
            fn mutate_expr(&mut self, e: &Expr) -> Expr {
                let e = mutate_expr_children(self, e);
                match e.node() {
                    ExprNode::Load {
                        ty,
                        name,
                        index,
                        predicate,
                    } if name == self.name && index == self.index => {
                        self.shared = true;
                        let var = self.var.clone();
                        match predicate {
                            Some(p) => Expr::load_predicated(*ty, name.clone(), var, p.clone()),
                            None => Expr::load(*ty, name.clone(), var),
                        }
                    }
                    _ => e,
                }
            }
        }
        let var_name = format!("{name}.rmw.index");
        let mut share = Share {
            name,
            index,
            var: Expr::var(var_name.clone(), index.ty()),
            shared: false,
        };
        let value = share.mutate_expr(value);
        if !share.shared {
            return s.clone();
        }
        let store = match predicate {
            Some(p) => Stmt::store_predicated(name.clone(), value, share.var, p.clone()),
            None => Stmt::store(name.clone(), value, share.var),
        };
        Stmt::let_stmt(var_name, index.clone(), store)
    }
}

/// Replaces vectorized and unrolled loops with vector expressions and
/// replicated bodies respectively, then lowers `if`s whose condition became
/// a vector (predicate-tail guards) into predicated loads and stores, and
/// binds the index of a gathered read-modify-write (`f[i] = f[i] + 1`
/// with a data-dependent vector `i`) to one `let`.
///
/// # Errors
///
/// Fails if a vectorized or unrolled loop has a non-constant or unreasonable
/// extent (the schedule should split by a constant factor first, picking a
/// tail strategy when the factor does not divide), or if a vector condition
/// guards an `if` with an else branch.
pub fn vectorize_and_unroll(stmt: &Stmt) -> Result<Stmt> {
    let mut pass = VectorizeUnroll {
        error: None,
        lets: LetResolver::new(256),
    };
    let out = pass.mutate_stmt(stmt);
    if let Some(e) = pass.error {
        return Err(e);
    }
    let mut pred = PredicateIfs {
        error: None,
        lets: Vec::new(),
    };
    let out = pred.mutate_stmt(&out);
    match pred.error {
        Some(e) => Err(e),
        None => Ok(ShareScatterIndex { lets: Vec::new() }.mutate_stmt(&out)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use halide_ir::{ExprNode, Type};

    fn store_loop(kind: ForKind, extent: Expr) -> Stmt {
        Stmt::for_loop(
            "x",
            Expr::int(0),
            extent,
            kind,
            Stmt::store(
                "buf",
                Expr::load(Type::f32(), "src", Expr::var_i32("x")) * 2.0f32,
                Expr::var_i32("x"),
            ),
        )
    }

    #[test]
    fn vectorized_loop_becomes_ramp() {
        let s = store_loop(ForKind::Vectorized, Expr::int(8));
        let out = vectorize_and_unroll(&s).unwrap();
        let text = out.to_string();
        assert!(text.contains("ramp(0, 1, 8)"));
        assert!(!text.contains("for x"));
    }

    #[test]
    fn unrolled_loop_is_replicated() {
        let s = store_loop(ForKind::Unrolled, Expr::int(3));
        let out = vectorize_and_unroll(&s).unwrap();
        let text = out.to_string();
        assert!(text.contains("buf[0]"));
        assert!(text.contains("buf[1]"));
        assert!(text.contains("buf[2]"));
        assert!(!text.contains("for x"));
    }

    #[test]
    fn non_constant_extent_is_error() {
        let s = store_loop(ForKind::Vectorized, Expr::var_i32("n"));
        assert!(vectorize_and_unroll(&s).is_err());
        let s = store_loop(ForKind::Unrolled, Expr::var_i32("n"));
        assert!(vectorize_and_unroll(&s).is_err());
    }

    #[test]
    fn excessive_width_is_error() {
        let s = store_loop(
            ForKind::Vectorized,
            Expr::int((MAX_VECTOR_LANES + 1) as i32),
        );
        assert!(vectorize_and_unroll(&s).is_err());
    }

    #[test]
    fn width_one_vector_is_scalarized() {
        let s = store_loop(ForKind::Vectorized, Expr::int(1));
        let out = vectorize_and_unroll(&s).unwrap();
        let text = out.to_string();
        assert!(!text.contains("ramp"));
        assert!(text.contains("buf[0]"));
    }

    #[test]
    fn serial_loops_are_untouched() {
        let s = store_loop(ForKind::Serial, Expr::var_i32("n"));
        let out = vectorize_and_unroll(&s).unwrap();
        assert!(matches!(
            out.node(),
            StmtNode::For {
                kind: ForKind::Serial,
                ..
            }
        ));
    }

    #[test]
    fn nested_vector_and_unroll() {
        let inner = Stmt::for_loop(
            "xi",
            Expr::int(0),
            Expr::int(4),
            ForKind::Vectorized,
            Stmt::store(
                "buf",
                Expr::var_i32("xi") + Expr::var_i32("yi"),
                Expr::var_i32("xi"),
            ),
        );
        let outer = Stmt::for_loop("yi", Expr::int(0), Expr::int(2), ForKind::Unrolled, inner);
        let out = vectorize_and_unroll(&outer).unwrap();
        let text = out.to_string();
        assert!(text.contains("ramp(0, 1, 4)"));
        assert!(!text.contains("for "));
        // ensure the unrolled copies reference distinct yi values
        assert!(text.contains("+ 1)") || text.contains("1 +"));
        let _ = ExprNode::Ramp {
            base: Expr::int(0),
            stride: Expr::int(1),
            lanes: 4,
        };
    }
}
