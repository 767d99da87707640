//! Visitor and mutator traits over the IR.
//!
//! Every compiler pass in `halide-lower` is written as an [`IrMutator`]: the
//! trait provides default recursion, and a pass overrides `mutate_expr` /
//! `mutate_stmt` for the node kinds it cares about, delegating back to
//! [`mutate_expr_children`] / [`mutate_stmt_children`] to recurse.

use crate::expr::{Expr, ExprNode};
use crate::stmt::{Range, Stmt, StmtNode};

/// Read-only traversal of expressions and statements.
pub trait IrVisitor {
    /// Visits an expression. The default implementation recurses into children.
    fn visit_expr(&mut self, e: &Expr) {
        visit_expr_children(self, e);
    }

    /// Visits a statement. The default implementation recurses into children.
    fn visit_stmt(&mut self, s: &Stmt) {
        visit_stmt_children(self, s);
    }
}

/// Recurses into the children of an expression, calling `visit_expr` /
/// `visit_stmt` on each.
pub fn visit_expr_children<V: IrVisitor + ?Sized>(v: &mut V, e: &Expr) {
    match e.node() {
        ExprNode::IntImm { .. }
        | ExprNode::UIntImm { .. }
        | ExprNode::FloatImm { .. }
        | ExprNode::Var { .. } => {}
        ExprNode::Cast { value, .. } => v.visit_expr(value),
        ExprNode::Bin { a, b, .. } | ExprNode::Cmp { a, b, .. } => {
            v.visit_expr(a);
            v.visit_expr(b);
        }
        ExprNode::And { a, b } | ExprNode::Or { a, b } => {
            v.visit_expr(a);
            v.visit_expr(b);
        }
        ExprNode::Not { a } => v.visit_expr(a),
        ExprNode::Select { cond, t, f } => {
            v.visit_expr(cond);
            v.visit_expr(t);
            v.visit_expr(f);
        }
        ExprNode::Ramp { base, stride, .. } => {
            v.visit_expr(base);
            v.visit_expr(stride);
        }
        ExprNode::Broadcast { value, .. } => v.visit_expr(value),
        ExprNode::Let { value, body, .. } => {
            v.visit_expr(value);
            v.visit_expr(body);
        }
        ExprNode::Load {
            index, predicate, ..
        } => {
            v.visit_expr(index);
            if let Some(p) = predicate {
                v.visit_expr(p);
            }
        }
        ExprNode::Call { args, .. } => {
            for a in args {
                v.visit_expr(a);
            }
        }
    }
}

/// Recurses into the children of a statement, calling `visit_expr` /
/// `visit_stmt` on each.
pub fn visit_stmt_children<V: IrVisitor + ?Sized>(v: &mut V, s: &Stmt) {
    match s.node() {
        StmtNode::LetStmt { value, body, .. } => {
            v.visit_expr(value);
            v.visit_stmt(body);
        }
        StmtNode::Assert { condition, .. } => v.visit_expr(condition),
        StmtNode::Producer { body, .. } => v.visit_stmt(body),
        StmtNode::For {
            min, extent, body, ..
        } => {
            v.visit_expr(min);
            v.visit_expr(extent);
            v.visit_stmt(body);
        }
        StmtNode::Provide { value, args, .. } => {
            v.visit_expr(value);
            for a in args {
                v.visit_expr(a);
            }
        }
        StmtNode::Store {
            value,
            index,
            predicate,
            ..
        } => {
            v.visit_expr(value);
            v.visit_expr(index);
            if let Some(p) = predicate {
                v.visit_expr(p);
            }
        }
        StmtNode::Realize { bounds, body, .. } => {
            for r in bounds {
                v.visit_expr(&r.min);
                v.visit_expr(&r.extent);
            }
            v.visit_stmt(body);
        }
        StmtNode::Allocate { size, body, .. } => {
            v.visit_expr(size);
            v.visit_stmt(body);
        }
        StmtNode::Block { stmts } => {
            for s in stmts {
                v.visit_stmt(s);
            }
        }
        StmtNode::IfThenElse {
            condition,
            then_case,
            else_case,
        } => {
            v.visit_expr(condition);
            v.visit_stmt(then_case);
            if let Some(e) = else_case {
                v.visit_stmt(e);
            }
        }
        StmtNode::Evaluate { value } => v.visit_expr(value),
        StmtNode::NoOp => {}
    }
}

/// Rebuilding traversal of expressions and statements.
pub trait IrMutator {
    /// Mutates an expression. The default implementation rebuilds children.
    fn mutate_expr(&mut self, e: &Expr) -> Expr {
        mutate_expr_children(self, e)
    }

    /// Mutates a statement. The default implementation rebuilds children.
    fn mutate_stmt(&mut self, s: &Stmt) -> Stmt {
        mutate_stmt_children(self, s)
    }
}

/// Rebuilds an expression by mutating each child. Nodes whose children did not
/// change are returned as-is (cheap `Arc` clone).
pub fn mutate_expr_children<M: IrMutator + ?Sized>(m: &mut M, e: &Expr) -> Expr {
    match e.node() {
        ExprNode::IntImm { .. }
        | ExprNode::UIntImm { .. }
        | ExprNode::FloatImm { .. }
        | ExprNode::Var { .. } => e.clone(),
        ExprNode::Cast { ty, value } => {
            let nv = m.mutate_expr(value);
            if nv == *value {
                e.clone()
            } else {
                ExprNode::Cast { ty: *ty, value: nv }.into()
            }
        }
        ExprNode::Bin { op, a, b } => {
            let (na, nb) = (m.mutate_expr(a), m.mutate_expr(b));
            if na == *a && nb == *b {
                e.clone()
            } else {
                ExprNode::Bin {
                    op: *op,
                    a: na,
                    b: nb,
                }
                .into()
            }
        }
        ExprNode::Cmp { op, a, b } => {
            let (na, nb) = (m.mutate_expr(a), m.mutate_expr(b));
            if na == *a && nb == *b {
                e.clone()
            } else {
                ExprNode::Cmp {
                    op: *op,
                    a: na,
                    b: nb,
                }
                .into()
            }
        }
        ExprNode::And { a, b } => {
            let (na, nb) = (m.mutate_expr(a), m.mutate_expr(b));
            if na == *a && nb == *b {
                e.clone()
            } else {
                ExprNode::And { a: na, b: nb }.into()
            }
        }
        ExprNode::Or { a, b } => {
            let (na, nb) = (m.mutate_expr(a), m.mutate_expr(b));
            if na == *a && nb == *b {
                e.clone()
            } else {
                ExprNode::Or { a: na, b: nb }.into()
            }
        }
        ExprNode::Not { a } => {
            let na = m.mutate_expr(a);
            if na == *a {
                e.clone()
            } else {
                ExprNode::Not { a: na }.into()
            }
        }
        ExprNode::Select { cond, t, f } => {
            let (nc, nt, nf) = (m.mutate_expr(cond), m.mutate_expr(t), m.mutate_expr(f));
            if nc == *cond && nt == *t && nf == *f {
                e.clone()
            } else {
                ExprNode::Select {
                    cond: nc,
                    t: nt,
                    f: nf,
                }
                .into()
            }
        }
        ExprNode::Ramp {
            base,
            stride,
            lanes,
        } => {
            let (nb, ns) = (m.mutate_expr(base), m.mutate_expr(stride));
            if nb == *base && ns == *stride {
                e.clone()
            } else {
                ExprNode::Ramp {
                    base: nb,
                    stride: ns,
                    lanes: *lanes,
                }
                .into()
            }
        }
        ExprNode::Broadcast { value, lanes } => {
            let nv = m.mutate_expr(value);
            if nv == *value {
                e.clone()
            } else {
                ExprNode::Broadcast {
                    value: nv,
                    lanes: *lanes,
                }
                .into()
            }
        }
        ExprNode::Let { name, value, body } => {
            let (nv, nb) = (m.mutate_expr(value), m.mutate_expr(body));
            if nv == *value && nb == *body {
                e.clone()
            } else {
                ExprNode::Let {
                    name: name.clone(),
                    value: nv,
                    body: nb,
                }
                .into()
            }
        }
        ExprNode::Load {
            ty,
            name,
            index,
            predicate,
        } => {
            let ni = m.mutate_expr(index);
            let np = predicate.as_ref().map(|p| m.mutate_expr(p));
            if ni == *index && np == *predicate {
                e.clone()
            } else {
                ExprNode::Load {
                    ty: *ty,
                    name: name.clone(),
                    index: ni,
                    predicate: np,
                }
                .into()
            }
        }
        ExprNode::Call {
            ty,
            name,
            call_type,
            args,
            func,
        } => {
            let nargs: Vec<Expr> = args.iter().map(|a| m.mutate_expr(a)).collect();
            if nargs == *args {
                e.clone()
            } else {
                Expr::call_with(*ty, name.clone(), *call_type, nargs, func.clone())
            }
        }
    }
}

/// Rebuilds a statement by mutating each child.
pub fn mutate_stmt_children<M: IrMutator + ?Sized>(m: &mut M, s: &Stmt) -> Stmt {
    match s.node() {
        StmtNode::LetStmt { name, value, body } => {
            let (nv, nb) = (m.mutate_expr(value), m.mutate_stmt(body));
            if nv == *value && nb == *body {
                s.clone()
            } else {
                StmtNode::LetStmt {
                    name: name.clone(),
                    value: nv,
                    body: nb,
                }
                .into()
            }
        }
        StmtNode::Assert { condition, message } => {
            let nc = m.mutate_expr(condition);
            if nc == *condition {
                s.clone()
            } else {
                StmtNode::Assert {
                    condition: nc,
                    message: message.clone(),
                }
                .into()
            }
        }
        StmtNode::Producer {
            name,
            is_produce,
            body,
        } => {
            let nb = m.mutate_stmt(body);
            if nb == *body {
                s.clone()
            } else {
                StmtNode::Producer {
                    name: name.clone(),
                    is_produce: *is_produce,
                    body: nb,
                }
                .into()
            }
        }
        StmtNode::For {
            name,
            min,
            extent,
            kind,
            body,
        } => {
            let (nm, ne, nb) = (
                m.mutate_expr(min),
                m.mutate_expr(extent),
                m.mutate_stmt(body),
            );
            if nm == *min && ne == *extent && nb == *body {
                s.clone()
            } else {
                StmtNode::For {
                    name: name.clone(),
                    min: nm,
                    extent: ne,
                    kind: *kind,
                    body: nb,
                }
                .into()
            }
        }
        StmtNode::Provide { name, value, args } => {
            let nv = m.mutate_expr(value);
            let nargs: Vec<Expr> = args.iter().map(|a| m.mutate_expr(a)).collect();
            if nv == *value && nargs == *args {
                s.clone()
            } else {
                StmtNode::Provide {
                    name: name.clone(),
                    value: nv,
                    args: nargs,
                }
                .into()
            }
        }
        StmtNode::Store {
            name,
            value,
            index,
            predicate,
        } => {
            let (nv, ni) = (m.mutate_expr(value), m.mutate_expr(index));
            let np = predicate.as_ref().map(|p| m.mutate_expr(p));
            if nv == *value && ni == *index && np == *predicate {
                s.clone()
            } else {
                StmtNode::Store {
                    name: name.clone(),
                    value: nv,
                    index: ni,
                    predicate: np,
                }
                .into()
            }
        }
        StmtNode::Realize {
            name,
            ty,
            bounds,
            body,
        } => {
            let nbounds: Vec<Range> = bounds
                .iter()
                .map(|r| Range::new(m.mutate_expr(&r.min), m.mutate_expr(&r.extent)))
                .collect();
            let nb = m.mutate_stmt(body);
            if nbounds == *bounds && nb == *body {
                s.clone()
            } else {
                StmtNode::Realize {
                    name: name.clone(),
                    ty: *ty,
                    bounds: nbounds,
                    body: nb,
                }
                .into()
            }
        }
        StmtNode::Allocate {
            name,
            ty,
            size,
            body,
        } => {
            let (nsize, nb) = (m.mutate_expr(size), m.mutate_stmt(body));
            if nsize == *size && nb == *body {
                s.clone()
            } else {
                StmtNode::Allocate {
                    name: name.clone(),
                    ty: *ty,
                    size: nsize,
                    body: nb,
                }
                .into()
            }
        }
        StmtNode::Block { stmts } => {
            let nstmts: Vec<Stmt> = stmts.iter().map(|x| m.mutate_stmt(x)).collect();
            if nstmts == *stmts {
                s.clone()
            } else {
                Stmt::block_of(nstmts)
            }
        }
        StmtNode::IfThenElse {
            condition,
            then_case,
            else_case,
        } => {
            let nc = m.mutate_expr(condition);
            let nt = m.mutate_stmt(then_case);
            let ne = else_case.as_ref().map(|e| m.mutate_stmt(e));
            if nc == *condition && nt == *then_case && ne == *else_case {
                s.clone()
            } else {
                StmtNode::IfThenElse {
                    condition: nc,
                    then_case: nt,
                    else_case: ne,
                }
                .into()
            }
        }
        StmtNode::Evaluate { value } => {
            let nv = m.mutate_expr(value);
            if nv == *value {
                s.clone()
            } else {
                StmtNode::Evaluate { value: nv }.into()
            }
        }
        StmtNode::NoOp => s.clone(),
    }
}

/// Collects the names of all free variables referenced in an expression.
pub fn free_vars(e: &Expr) -> std::collections::HashSet<String> {
    struct Collector {
        bound: Vec<String>,
        found: std::collections::HashSet<String>,
    }
    impl IrVisitor for Collector {
        fn visit_expr(&mut self, e: &Expr) {
            match e.node() {
                ExprNode::Var { name, .. } => {
                    if !self.bound.iter().any(|b| b == name) {
                        self.found.insert(name.clone());
                    }
                }
                ExprNode::Let { name, value, body } => {
                    self.visit_expr(value);
                    self.bound.push(name.clone());
                    self.visit_expr(body);
                    self.bound.pop();
                }
                _ => visit_expr_children(self, e),
            }
        }
    }
    let mut c = Collector {
        bound: Vec::new(),
        found: std::collections::HashSet::new(),
    };
    c.visit_expr(e);
    c.found
}

/// Counts the nodes of an expression tree. Used by the scope-carrying
/// simplifier to bound the cost of resolving let-bound variables, and by
/// tests asserting that lowering keeps bounds expressions compact.
pub fn expr_node_count(e: &Expr) -> usize {
    struct Counter {
        n: usize,
    }
    impl IrVisitor for Counter {
        fn visit_expr(&mut self, e: &Expr) {
            self.n += 1;
            visit_expr_children(self, e);
        }
    }
    let mut c = Counter { n: 0 };
    c.visit_expr(e);
    c.n
}

/// True if the expression references the variable `name` (ignoring shadowing
/// by inner lets — adequate for the unique names the lowering pass generates).
pub fn expr_uses_var(e: &Expr, name: &str) -> bool {
    struct Uses<'a> {
        name: &'a str,
        found: bool,
    }
    impl IrVisitor for Uses<'_> {
        fn visit_expr(&mut self, e: &Expr) {
            if self.found {
                return;
            }
            if let ExprNode::Var { name, .. } = e.node() {
                if name == self.name {
                    self.found = true;
                    return;
                }
            }
            visit_expr_children(self, e);
        }
    }
    let mut v = Uses { name, found: false };
    v.visit_expr(e);
    v.found
}

/// True if the statement (or any nested expression) references variable `name`.
pub fn stmt_uses_var(s: &Stmt, name: &str) -> bool {
    struct Uses<'a> {
        name: &'a str,
        found: bool,
    }
    impl IrVisitor for Uses<'_> {
        fn visit_expr(&mut self, e: &Expr) {
            if self.found {
                return;
            }
            if let ExprNode::Var { name, .. } = e.node() {
                if name == self.name {
                    self.found = true;
                    return;
                }
            }
            visit_expr_children(self, e);
        }
        fn visit_stmt(&mut self, s: &Stmt) {
            if self.found {
                return;
            }
            visit_stmt_children(self, s);
        }
    }
    let mut v = Uses { name, found: false };
    v.visit_stmt(s);
    v.found
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Type;

    struct RenameX;
    impl IrMutator for RenameX {
        fn mutate_expr(&mut self, e: &Expr) -> Expr {
            if let ExprNode::Var { name, ty } = e.node() {
                if name == "x" {
                    return Expr::var("z", *ty);
                }
            }
            mutate_expr_children(self, e)
        }
    }

    #[test]
    fn mutator_rewrites_vars() {
        let e = Expr::var_i32("x") + Expr::var_i32("y");
        let out = RenameX.mutate_expr(&e);
        assert_eq!(out.to_string(), "(z + y)");
    }

    #[test]
    fn mutator_preserves_unchanged_nodes() {
        let e = Expr::var_i32("a") + Expr::var_i32("b");
        let out = RenameX.mutate_expr(&e);
        assert_eq!(out, e);
    }

    #[test]
    fn mutator_descends_into_stmts() {
        let s = Stmt::for_loop(
            "i",
            Expr::int(0),
            Expr::var_i32("x"),
            crate::stmt::ForKind::Serial,
            Stmt::store("buf", Expr::var_i32("x"), Expr::var_i32("i")),
        );
        let out = RenameX.mutate_stmt(&s);
        let text = out.to_string();
        assert!(text.contains("buf[i] = z"));
        assert!(text.contains("0 + z"));
    }

    #[test]
    fn free_vars_respects_let_binding() {
        let e = Expr::let_in(
            "t",
            Expr::var_i32("x"),
            Expr::var_i32("t") + Expr::var_i32("y"),
        );
        let fv = free_vars(&e);
        assert!(fv.contains("x"));
        assert!(fv.contains("y"));
        assert!(!fv.contains("t"));
    }

    #[test]
    fn uses_var_queries() {
        let e = Expr::var("q", Type::f32()) * 2.0f32;
        assert!(expr_uses_var(&e, "q"));
        assert!(!expr_uses_var(&e, "r"));
        let s = Stmt::evaluate(e);
        assert!(stmt_uses_var(&s, "q"));
        assert!(!stmt_uses_var(&s, "r"));
    }
}
