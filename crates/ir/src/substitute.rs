//! Variable substitution over expressions and statements.
//!
//! Substitution respects lexical shadowing: a `Let` (or `LetStmt`) that
//! rebinds a substituted name protects its body, so replacing `x` in
//! `let x = y in x + 1` leaves the expression unchanged. This matters for
//! the let-dense statements produced by bounds inference, where a
//! `<func>.<dim>.min` bound at the storage level is deliberately shadowed
//! by a tighter per-iteration binding at the compute level.

use std::collections::HashMap;

use crate::expr::{Expr, ExprNode};
use crate::stmt::{Stmt, StmtNode};
use crate::visit::{
    mutate_expr_children, mutate_stmt_children, visit_expr_children, IrMutator, IrVisitor,
};

struct Substituter<'a> {
    map: &'a HashMap<String, Expr>,
    /// Names currently shadowed by an enclosing let binding; substitution of
    /// these is suppressed until the binding goes out of scope.
    shadowed: Vec<String>,
}

impl Substituter<'_> {
    fn is_active(&self, name: &str) -> bool {
        self.map.contains_key(name) && !self.shadowed.iter().any(|s| s == name)
    }

    /// Runs `f` with `name` marked shadowed if the map would otherwise
    /// substitute it.
    fn with_shadow<R>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> R) -> R {
        let pushed = self.map.contains_key(name);
        if pushed {
            self.shadowed.push(name.to_string());
        }
        let r = f(self);
        if pushed {
            self.shadowed.pop();
        }
        r
    }
}

impl IrMutator for Substituter<'_> {
    fn mutate_expr(&mut self, e: &Expr) -> Expr {
        match e.node() {
            ExprNode::Var { name, .. } => {
                if self.is_active(name) {
                    return self.map[name].clone();
                }
                e.clone()
            }
            ExprNode::Let { name, value, body } => {
                let nv = self.mutate_expr(value);
                let nb = self.with_shadow(name, |s| s.mutate_expr(body));
                if nv == *value && nb == *body {
                    e.clone()
                } else {
                    Expr::let_in(name.clone(), nv, nb)
                }
            }
            _ => mutate_expr_children(self, e),
        }
    }

    fn mutate_stmt(&mut self, s: &Stmt) -> Stmt {
        match s.node() {
            StmtNode::LetStmt { name, value, body } => {
                let nv = self.mutate_expr(value);
                let nb = self.with_shadow(name, |sub| sub.mutate_stmt(body));
                if nv == *value && nb == *body {
                    s.clone()
                } else {
                    Stmt::let_stmt(name.clone(), nv, nb)
                }
            }
            _ => mutate_stmt_children(self, s),
        }
    }
}

/// Replaces every free occurrence of the variable `name` in `e` with `value`.
///
/// Occurrences under a `Let` that rebinds `name` are left alone (they refer
/// to the inner binding, not the substituted one).
pub fn substitute(e: &Expr, name: &str, value: &Expr) -> Expr {
    let mut map = HashMap::new();
    map.insert(name.to_string(), value.clone());
    substitute_map(e, &map)
}

/// Replaces every free variable named in `map` with its mapped expression,
/// respecting shadowing by inner lets.
pub fn substitute_map(e: &Expr, map: &HashMap<String, Expr>) -> Expr {
    if map.is_empty() {
        return e.clone();
    }
    Substituter {
        map,
        shadowed: Vec::new(),
    }
    .mutate_expr(e)
}

/// Replaces every free occurrence of the variable `name` in statement `s`
/// with `value`, respecting shadowing by inner lets.
pub fn substitute_in_stmt(s: &Stmt, name: &str, value: &Expr) -> Stmt {
    let mut map = HashMap::new();
    map.insert(name.to_string(), value.clone());
    substitute_map_in_stmt(s, &map)
}

/// Replaces every free variable named in `map` within statement `s`,
/// respecting shadowing by inner lets.
pub fn substitute_map_in_stmt(s: &Stmt, map: &HashMap<String, Expr>) -> Stmt {
    if map.is_empty() {
        return s.clone();
    }
    Substituter {
        map,
        shadowed: Vec::new(),
    }
    .mutate_stmt(s)
}

/// A walker-maintained view of the `let` bindings enclosing the current
/// node, with each tracked value *fully resolved* against the bindings
/// enclosing it (so a single substitution pass resolves transitively) and
/// simplified.
///
/// Passes that need to see through the `<func>.<dim>.min` / `.extent`
/// names bounds inference emits — the scope-carrying simplifier, the
/// sliding-window pass, vectorization — all share this type, so the
/// shadowing and cost rules live in one place:
///
/// * [`enter`](LetResolver::enter) / [`exit`](LetResolver::exit) bracket a
///   binding; re-entering a name shadows the outer entry and `exit`
///   restores it.
/// * Resolution is budgeted: a value whose input or resolved form exceeds
///   the node budget is tracked as *opaque* — the name is masked (not left
///   pointing at an outer same-named binding, which would resolve the body
///   against the wrong value) and simply stays symbolic in
///   [`resolve`](LetResolver::resolve) results. That keeps every pass
///   linear on deep, let-dense pipelines: oversized bounds cannot satisfy
///   the small name-plus-offset patterns the passes match anyway.
#[derive(Debug, Clone)]
pub struct LetResolver {
    budget: usize,
    map: HashMap<String, Expr>,
}

impl LetResolver {
    /// Creates an empty resolver with the given node budget per tracked
    /// (resolved) value.
    pub fn new(budget: usize) -> Self {
        LetResolver {
            budget,
            map: HashMap::new(),
        }
    }

    /// True if no binding is currently tracked.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Resolves every tracked let-bound variable in `e` to its value and
    /// simplifies the result; a bare tracked name is returned as its value
    /// was tracked, without simplifying it again. Opaque (masked or
    /// never-entered) names stay symbolic — they are still in scope at every
    /// use, so the result is always a valid expression. Inputs larger than
    /// the budget are returned unchanged.
    pub fn resolve(&self, e: &Expr) -> Expr {
        if self.map.is_empty() || crate::visit::expr_node_count(e) > self.budget {
            return e.clone();
        }
        // A tracked name is its tracked value, which was resolved on entry.
        if let Some(value) = e.as_var().and_then(|name| self.map.get(name)) {
            return value.clone();
        }
        let r = substitute_map(e, &self.map);
        if r == *e {
            r
        } else {
            crate::simplify::simplify(&r)
        }
    }

    /// True if `a` and `b` cannot resolve to constant offsets of one base
    /// expression, decided without resolving either: one side mentions no
    /// tracked name (so it resolves to itself) and has a variable the other
    /// side can reach neither directly nor through a tracked let — the loop
    /// variable of `min(outer*f, e - f)`, say. A tracked let may resolve to
    /// that variable, so the other side's lets count. Like
    /// [`resolve`](LetResolver::resolve), it gives up (`false`) on operands
    /// over the node budget.
    pub fn cannot_share_base(&self, a: &Expr, b: &Expr) -> bool {
        self.escapes(a, b) || self.escapes(b, a)
    }

    /// True if `a` resolves to itself (it mentions no tracked name and
    /// binds none) and mentions a variable `b` cannot reach.
    fn escapes(&self, a: &Expr, b: &Expr) -> bool {
        /// Walks `a` until it is `undecided` (a tracked name, a binding or
        /// more nodes than the budget show up) or `escaped` (a variable `b`
        /// cannot reach does).
        struct Walk<'a> {
            resolver: &'a LetResolver,
            b: &'a Expr,
            nodes: usize,
            undecided: bool,
            escaped: bool,
        }
        impl IrVisitor for Walk<'_> {
            fn visit_expr(&mut self, e: &Expr) {
                if self.undecided || self.escaped {
                    return;
                }
                self.nodes += 1;
                match e.node() {
                    _ if self.nodes > self.resolver.budget => self.undecided = true,
                    ExprNode::Var { name, .. } if self.resolver.map.contains_key(name) => {
                        self.undecided = true;
                    }
                    ExprNode::Var { name, .. } => {
                        self.escaped = !self.resolver.reaches(self.b, name);
                    }
                    ExprNode::Let { .. } => self.undecided = true,
                    _ => visit_expr_children(self, e),
                }
            }
        }
        let mut w = Walk {
            resolver: self,
            b,
            nodes: 0,
            undecided: false,
            escaped: false,
        };
        w.visit_expr(a);
        !w.undecided && w.escaped
    }

    /// True if `e` mentions `var`, directly or through a tracked let's
    /// resolved value — or is over the node budget.
    fn reaches(&self, e: &Expr, var: &str) -> bool {
        struct Reach<'a> {
            resolver: &'a LetResolver,
            var: &'a str,
            nodes: usize,
            found: bool,
        }
        impl IrVisitor for Reach<'_> {
            fn visit_expr(&mut self, e: &Expr) {
                if self.found {
                    return;
                }
                self.nodes += 1;
                match e.node() {
                    _ if self.nodes > self.resolver.budget => self.found = true,
                    ExprNode::Var { name, .. } => {
                        self.found =
                            name == self.var
                                || self.resolver.map.get(name).is_some_and(|value| {
                                    crate::visit::expr_uses_var(value, self.var)
                                });
                    }
                    _ => visit_expr_children(self, e),
                }
            }
        }
        let mut r = Reach {
            resolver: self,
            var,
            nodes: 0,
            found: false,
        };
        r.visit_expr(e);
        r.found
    }

    /// Enters the binding `name = value`, tracking its resolved form when
    /// it fits the budget and masking the name otherwise. Returns whatever
    /// entry this displaced; hand it back to [`exit`](LetResolver::exit).
    pub fn enter(&mut self, name: &str, value: &Expr) -> Option<Expr> {
        let resolved = if crate::visit::expr_node_count(value) <= self.budget {
            let r = self.resolve(value);
            (crate::visit::expr_node_count(&r) <= self.budget).then_some(r)
        } else {
            None
        };
        match resolved {
            Some(r) => self.map.insert(name.to_string(), r),
            None => self.map.remove(name),
        }
    }

    /// Leaves a binding, restoring whatever [`enter`](LetResolver::enter)
    /// displaced.
    pub fn exit(&mut self, name: &str, saved: Option<Expr>) {
        match saved {
            Some(old) => {
                self.map.insert(name.to_string(), old);
            }
            None => {
                self.map.remove(name);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stmt::ForKind;

    #[test]
    fn substitute_in_expr() {
        let e = Expr::var_i32("x") * 2 + Expr::var_i32("y");
        let out = substitute(&e, "x", &Expr::int(5));
        assert_eq!(out.to_string(), "((5*2) + y)");
    }

    #[test]
    fn substitute_many() {
        let e = Expr::var_i32("x") + Expr::var_i32("y");
        let mut map = HashMap::new();
        map.insert("x".to_string(), Expr::int(1));
        map.insert("y".to_string(), Expr::int(2));
        assert_eq!(substitute_map(&e, &map).to_string(), "(1 + 2)");
    }

    #[test]
    fn substitute_in_statement() {
        let s = Stmt::for_loop(
            "i",
            Expr::int(0),
            Expr::var_i32("n"),
            ForKind::Serial,
            Stmt::store("b", Expr::var_i32("n"), Expr::var_i32("i")),
        );
        let out = substitute_in_stmt(&s, "n", &Expr::int(16));
        let text = out.to_string();
        assert!(text.contains("0 + 16"));
        assert!(text.contains("b[i] = 16"));
    }

    #[test]
    fn empty_map_is_identity() {
        let e = Expr::var_i32("x");
        assert_eq!(substitute_map(&e, &HashMap::new()), e);
    }

    #[test]
    fn let_resolver_tracks_shadows_and_masks() {
        let mut r = LetResolver::new(64);
        assert!(r.is_empty());
        let saved_a = r.enter("a", &Expr::var_i32("x"));
        let saved_b = r.enter("b", &(Expr::var_i32("a") + 1));
        // Transitive: b resolved against a's entry.
        assert_eq!(r.resolve(&Expr::var_i32("b")).to_string(), "(x + 1)");
        // Shadowing: re-entering `a` supersedes, exit restores.
        let saved_a2 = r.enter("a", &Expr::int(9));
        assert_eq!(r.resolve(&Expr::var_i32("a")).as_const_int(), Some(9));
        // The earlier resolution of b is unaffected by the new a.
        assert_eq!(r.resolve(&Expr::var_i32("b")).to_string(), "(x + 1)");
        r.exit("a", saved_a2);
        assert_eq!(r.resolve(&Expr::var_i32("a")).to_string(), "x");
        r.exit("b", saved_b);
        r.exit("a", saved_a);
        assert!(r.is_empty());

        // An over-budget value masks the name instead of leaking an outer
        // same-named binding into the body.
        let mut r = LetResolver::new(4);
        let saved = r.enter("n", &Expr::int(1));
        let big = (0..10).fold(Expr::var_i32("q"), |e, i| {
            e + Expr::var_i32(format!("v{i}"))
        });
        let saved_inner = r.enter("n", &big);
        assert_eq!(r.resolve(&Expr::var_i32("n")).to_string(), "n");
        r.exit("n", saved_inner);
        assert_eq!(r.resolve(&Expr::var_i32("n")).as_const_int(), Some(1));
        r.exit("n", saved);
    }

    #[test]
    fn inner_let_shadows_substitution_in_expr() {
        // substitute m := 7 in `m + (let m = m * 2 in m + 1)`:
        // the let VALUE sees the outer m; the let BODY refers to the rebound m.
        let e = Expr::var_i32("m")
            + Expr::let_in(
                "m",
                Expr::var_i32("m") * 2,
                Expr::var_i32("m") + Expr::int(1),
            );
        let out = substitute(&e, "m", &Expr::int(7));
        assert_eq!(out.to_string(), "(7 + (let m = (7*2) in (m + 1)))");
    }

    #[test]
    fn inner_let_stmt_shadows_substitution() {
        // `f.x.min` is rebound by an inner LetStmt; only the outer use and the
        // inner let's value are substituted.
        let s = Stmt::block(
            Stmt::evaluate(Expr::var_i32("f.x.min")),
            Stmt::let_stmt(
                "f.x.min",
                Expr::var_i32("f.x.min") + 1,
                Stmt::evaluate(Expr::var_i32("f.x.min")),
            ),
        );
        let out = substitute_in_stmt(&s, "f.x.min", &Expr::int(3));
        let text = out.to_string();
        assert!(text.contains("let f.x.min = (3 + 1)"));
        // The body occurrence survives as a variable reference.
        assert!(text.lines().last().unwrap().contains("f.x.min"));
    }
}
