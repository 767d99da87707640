//! Interval analysis.
//!
//! The paper's bounds inference (Sec. 4.2) uses simple interval arithmetic
//! rather than a polyhedral model: for every expression we compute symbolic
//! `[min, max]` bounds given intervals for the free variables in scope. The
//! result is less expressive (axis-aligned boxes only) but can analyze every
//! construct in the language, which is what makes schedule-driven loop
//! synthesis possible.

use crate::expr::{BinOp, Expr, ExprNode};
use crate::scope::Scope;
use crate::simplify::simplify;

/// A symbolic closed interval `[min, max]`. `None` means unbounded in that
/// direction.
#[derive(Debug, Clone, PartialEq)]
pub struct Interval {
    /// Lower bound (inclusive), or `None` for negative infinity.
    pub min: Option<Expr>,
    /// Upper bound (inclusive), or `None` for positive infinity.
    pub max: Option<Expr>,
}

impl Interval {
    /// The interval `[min, max]`.
    pub fn new(min: Expr, max: Expr) -> Self {
        Interval {
            min: Some(min),
            max: Some(max),
        }
    }

    /// The degenerate interval containing only `e`.
    pub fn single_point(e: Expr) -> Self {
        Interval {
            min: Some(e.clone()),
            max: Some(e),
        }
    }

    /// The unbounded interval.
    pub fn everything() -> Self {
        Interval {
            min: None,
            max: None,
        }
    }

    /// True when both ends are present.
    pub fn is_bounded(&self) -> bool {
        self.min.is_some() && self.max.is_some()
    }

    /// The extent `max - min + 1`, if both ends are bounded.
    pub fn extent(&self) -> Option<Expr> {
        match (&self.min, &self.max) {
            (Some(lo), Some(hi)) => Some(simplify(&(hi.clone() - lo.clone() + 1))),
            _ => None,
        }
    }

    /// The smallest interval containing both `self` and `other`
    /// (a bound survives only if present on both sides).
    pub fn union(&self, other: &Interval) -> Interval {
        let min = match (&self.min, &other.min) {
            (Some(a), Some(b)) => Some(simplify(&Expr::min(a.clone(), b.clone()))),
            _ => None,
        };
        let max = match (&self.max, &other.max) {
            (Some(a), Some(b)) => Some(simplify(&Expr::max(a.clone(), b.clone()))),
            _ => None,
        };
        Interval { min, max }
    }

    /// Applies `f` to both bounds where present.
    fn map(&self, f: impl Fn(&Expr) -> Expr) -> Interval {
        Interval {
            min: self.min.as_ref().map(&f),
            max: self.max.as_ref().map(&f),
        }
    }

    /// Simplifies both bounds.
    pub fn simplified(&self) -> Interval {
        self.map(simplify)
    }
}

fn add(a: &Interval, b: &Interval) -> Interval {
    Interval {
        min: match (&a.min, &b.min) {
            (Some(x), Some(y)) => Some(x.clone() + y.clone()),
            _ => None,
        },
        max: match (&a.max, &b.max) {
            (Some(x), Some(y)) => Some(x.clone() + y.clone()),
            _ => None,
        },
    }
}

fn sub(a: &Interval, b: &Interval) -> Interval {
    Interval {
        min: match (&a.min, &b.max) {
            (Some(x), Some(y)) => Some(x.clone() - y.clone()),
            _ => None,
        },
        max: match (&a.max, &b.min) {
            (Some(x), Some(y)) => Some(x.clone() - y.clone()),
            _ => None,
        },
    }
}

fn scale(a: &Interval, factor: &Expr) -> Interval {
    match factor.as_const_f64() {
        Some(c) if c >= 0.0 => Interval {
            min: a.min.as_ref().map(|m| m.clone() * factor.clone()),
            max: a.max.as_ref().map(|m| m.clone() * factor.clone()),
        },
        Some(_) => Interval {
            min: a.max.as_ref().map(|m| m.clone() * factor.clone()),
            max: a.min.as_ref().map(|m| m.clone() * factor.clone()),
        },
        // Symbolic scale factor: only safe if we conservatively assume it is
        // non-negative, which holds for split factors and strides produced by
        // the compiler. Interval analysis in the paper makes the same
        // assumption for symbolic tile sizes.
        None => Interval {
            min: a.min.as_ref().map(|m| m.clone() * factor.clone()),
            max: a.max.as_ref().map(|m| m.clone() * factor.clone()),
        },
    }
}

fn divide(a: &Interval, divisor: &Expr) -> Interval {
    match divisor.as_const_f64() {
        Some(c) if c > 0.0 => Interval {
            min: a.min.as_ref().map(|m| m.clone() / divisor.clone()),
            max: a.max.as_ref().map(|m| m.clone() / divisor.clone()),
        },
        Some(c) if c < 0.0 => Interval {
            min: a.max.as_ref().map(|m| m.clone() / divisor.clone()),
            max: a.min.as_ref().map(|m| m.clone() / divisor.clone()),
        },
        _ => Interval::everything(),
    }
}

fn minmax(op: BinOp, a: &Interval, b: &Interval) -> Interval {
    let pick = |x: &Option<Expr>, y: &Option<Expr>, lower: bool| -> Option<Expr> {
        match (x, y) {
            (Some(x), Some(y)) => Some(if op == BinOp::Min {
                Expr::min(x.clone(), y.clone())
            } else {
                Expr::max(x.clone(), y.clone())
            }),
            // For min: the result is <= either argument, so an upper bound from
            // one side alone still holds; a lower bound needs both. Dually for max.
            (Some(x), None) | (None, Some(x)) => {
                let keep = (op == BinOp::Min && !lower) || (op == BinOp::Max && lower);
                if keep {
                    Some(x.clone())
                } else {
                    None
                }
            }
            (None, None) => None,
        }
    };
    Interval {
        min: pick(&a.min, &b.min, true),
        max: pick(&a.max, &b.max, false),
    }
}

/// Computes symbolic bounds of `e` given intervals for variables in `scope`.
/// Variables not in scope are treated as unknown-but-fixed symbols (their
/// interval is the single point `[v, v]`), which is exactly what bounds
/// inference wants for outer loop variables that remain symbolic.
pub fn bounds_of_expr_in_scope(e: &Expr, scope: &Scope<Interval>) -> Interval {
    let result = match e.node() {
        ExprNode::IntImm { .. } | ExprNode::UIntImm { .. } | ExprNode::FloatImm { .. } => {
            Interval::single_point(e.clone())
        }
        ExprNode::Var { name, .. } => match scope.get(name) {
            Some(i) => i.clone(),
            None => Interval::single_point(e.clone()),
        },
        ExprNode::Cast { ty, value } => bounds_of_expr_in_scope(value, scope).map(|b| b.cast(*ty)),
        ExprNode::Bin { op, a, b } => {
            let ia = bounds_of_expr_in_scope(a, scope);
            let ib = bounds_of_expr_in_scope(b, scope);
            match op {
                BinOp::Add => add(&ia, &ib),
                BinOp::Sub => sub(&ia, &ib),
                BinOp::Mul => {
                    if b.as_const_f64().is_some() {
                        scale(&ia, b)
                    } else if a.as_const_f64().is_some() {
                        scale(&ib, a)
                    } else if let Some(k) = ib.min.as_ref().filter(|_| ib.min == ib.max) {
                        scale(&ia, k)
                    } else if let Some(k) = ia.min.as_ref().filter(|_| ia.min == ia.max) {
                        scale(&ib, k)
                    } else {
                        Interval::everything()
                    }
                }
                BinOp::Div => {
                    if b.as_const_f64().is_some() {
                        divide(&ia, b)
                    } else if ib.min.as_ref() == ib.max.as_ref() && ib.min.is_some() {
                        divide(&ia, ib.min.as_ref().expect("checked above"))
                    } else {
                        Interval::everything()
                    }
                }
                BinOp::Mod => match b.as_const_int() {
                    Some(m) if m > 0 => {
                        Interval::new(Expr::zero(e.ty()), Expr::imm_of(e.ty(), (m - 1) as f64))
                    }
                    _ => Interval::everything(),
                },
                BinOp::Min => minmax(BinOp::Min, &ia, &ib),
                BinOp::Max => minmax(BinOp::Max, &ia, &ib),
            }
        }
        ExprNode::Cmp { .. }
        | ExprNode::And { .. }
        | ExprNode::Or { .. }
        | ExprNode::Not { .. } => Interval::new(Expr::bool(false), Expr::bool(true)),
        ExprNode::Select { t, f, .. } => {
            bounds_of_expr_in_scope(t, scope).union(&bounds_of_expr_in_scope(f, scope))
        }
        ExprNode::Ramp {
            base,
            stride,
            lanes,
        } => {
            let ib = bounds_of_expr_in_scope(base, scope);
            let spread = stride.clone() * Expr::int(*lanes as i32 - 1);
            let shifted = add(&ib, &bounds_of_expr_in_scope(&spread, scope));
            ib.union(&shifted)
        }
        ExprNode::Broadcast { value, .. } => bounds_of_expr_in_scope(value, scope),
        ExprNode::Let { name, value, body } => {
            let iv = bounds_of_expr_in_scope(value, scope);
            let mut inner = scope.clone();
            inner.push(name.clone(), iv);
            bounds_of_expr_in_scope(body, &inner)
        }
        ExprNode::Load { .. } => Interval::everything(),
        ExprNode::Call { name, args, ty, .. } => match name.as_str() {
            "abs" => {
                let ia = bounds_of_expr_in_scope(&args[0], scope);
                Interval {
                    min: Some(Expr::zero(*ty)),
                    max: match (&ia.min, &ia.max) {
                        (Some(lo), Some(hi)) => Some(Expr::max(lo.abs(), hi.abs())),
                        _ => None,
                    },
                }
            }
            "floor" | "ceil" | "round" => bounds_of_expr_in_scope(&args[0], scope),
            _ => Interval::everything(),
        },
    };
    result.simplified()
}

/// Bounds of an expression with no scope: useful for constant-extent queries.
pub fn bounds_of_expr(e: &Expr) -> Interval {
    bounds_of_expr_in_scope(e, &Scope::new())
}

/// Constructs the interval `[min, min + extent - 1]` describing a loop
/// variable's range.
pub fn loop_interval(min: &Expr, extent: &Expr) -> Interval {
    Interval::new(min.clone(), simplify(&(min.clone() + extent.clone() - 1)))
}

/// A degenerate use: checks whether `e` provably lies within `[lo, hi]` given
/// the scope, by simplifying the comparison of the symbolic bounds.
pub fn provably_within(e: &Expr, lo: i64, hi: i64, scope: &Scope<Interval>) -> bool {
    let b = bounds_of_expr_in_scope(e, scope);
    let ok_lo = b
        .min
        .as_ref()
        .and_then(|m| simplify(&Expr::ge(m.clone(), Expr::int(lo as i32))).as_const_int())
        == Some(1);
    let ok_hi = b
        .max
        .as_ref()
        .and_then(|m| simplify(&Expr::le(m.clone(), Expr::int(hi as i32))).as_const_int())
        == Some(1);
    ok_lo && ok_hi
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Type;

    fn scope_with(name: &str, lo: i32, hi: i32) -> Scope<Interval> {
        let mut s = Scope::new();
        s.push(name, Interval::new(Expr::int(lo), Expr::int(hi)));
        s
    }

    #[test]
    fn bounds_of_linear_expression() {
        let s = scope_with("x", 0, 9);
        let e = Expr::var_i32("x") * 2 + 5;
        let b = bounds_of_expr_in_scope(&e, &s);
        assert_eq!(b.min.unwrap().as_const_int(), Some(5));
        assert_eq!(b.max.unwrap().as_const_int(), Some(23));
    }

    #[test]
    fn bounds_of_subtraction_flips() {
        let s = scope_with("x", 0, 9);
        let e = Expr::int(100) - Expr::var_i32("x");
        let b = bounds_of_expr_in_scope(&e, &s);
        assert_eq!(b.min.unwrap().as_const_int(), Some(91));
        assert_eq!(b.max.unwrap().as_const_int(), Some(100));
    }

    #[test]
    fn bounds_of_negative_scale() {
        let s = scope_with("x", 1, 4);
        let e = Expr::var_i32("x") * -3;
        let b = bounds_of_expr_in_scope(&e, &s);
        assert_eq!(b.min.unwrap().as_const_int(), Some(-12));
        assert_eq!(b.max.unwrap().as_const_int(), Some(-3));
    }

    #[test]
    fn free_variables_stay_symbolic() {
        let s = scope_with("x", 0, 3);
        let e = Expr::var_i32("x") + Expr::var_i32("w");
        let b = bounds_of_expr_in_scope(&e, &s);
        assert_eq!(b.min.unwrap().to_string(), "w");
        assert_eq!(b.max.unwrap().to_string(), "(w + 3)");
    }

    #[test]
    fn min_max_and_clamp() {
        let s = scope_with("x", -5, 5);
        let clamped = Expr::var_i32("x").clamp(Expr::int(0), Expr::int(3));
        let b = bounds_of_expr_in_scope(&clamped, &s);
        assert_eq!(b.min.unwrap().as_const_int(), Some(0));
        assert_eq!(b.max.unwrap().as_const_int(), Some(3));
    }

    #[test]
    fn clamp_bounds_an_unbounded_value() {
        // Bounds of a value loaded from memory are unknown, but clamping it
        // introduces bounds — the paper's prescribed idiom.
        let loaded = Expr::load(Type::i32(), "buf", Expr::var_i32("i"));
        let clamped = loaded.clamp(Expr::int(0), Expr::int(255));
        let b = bounds_of_expr_in_scope(&clamped, &Scope::new());
        assert_eq!(b.min.unwrap().as_const_int(), Some(0));
        assert_eq!(b.max.unwrap().as_const_int(), Some(255));
    }

    #[test]
    fn division_and_mod() {
        let s = scope_with("x", 0, 99);
        let b = bounds_of_expr_in_scope(&(Expr::var_i32("x") / 10), &s);
        assert_eq!(b.min.unwrap().as_const_int(), Some(0));
        assert_eq!(b.max.unwrap().as_const_int(), Some(9));
        let b = bounds_of_expr_in_scope(&(Expr::var_i32("x") % 8), &s);
        assert_eq!(b.min.unwrap().as_const_int(), Some(0));
        assert_eq!(b.max.unwrap().as_const_int(), Some(7));
    }

    #[test]
    fn select_unions_branches() {
        let s = scope_with("x", 0, 9);
        let e = Expr::select(
            Expr::lt(Expr::var_i32("x"), Expr::int(5)),
            Expr::var_i32("x"),
            Expr::var_i32("x") + 100,
        );
        let b = bounds_of_expr_in_scope(&e, &s);
        assert_eq!(b.min.unwrap().as_const_int(), Some(0));
        assert_eq!(b.max.unwrap().as_const_int(), Some(109));
    }

    #[test]
    fn ramp_bounds() {
        let s = Scope::new();
        let e = Expr::ramp(Expr::int(10), Expr::int(2), 4);
        let b = bounds_of_expr_in_scope(&e, &s);
        assert_eq!(b.min.unwrap().as_const_int(), Some(10));
        assert_eq!(b.max.unwrap().as_const_int(), Some(16));
    }

    #[test]
    fn interval_union_and_extent() {
        let a = Interval::new(Expr::int(0), Expr::int(4));
        let b = Interval::new(Expr::int(3), Expr::int(9));
        let u = a.union(&b);
        assert_eq!(u.min.as_ref().unwrap().as_const_int(), Some(0));
        assert_eq!(u.max.as_ref().unwrap().as_const_int(), Some(9));
        assert_eq!(u.extent().unwrap().as_const_int(), Some(10));
    }

    #[test]
    fn unbounded_propagation() {
        let e = Expr::load(Type::i32(), "buf", Expr::int(0)) + 1;
        let b = bounds_of_expr(&e);
        assert!(b.min.is_none());
        assert!(b.max.is_none());
        assert!(!b.is_bounded());
        assert!(b.extent().is_none());
    }

    #[test]
    fn provably_within_works() {
        let s = scope_with("x", 2, 7);
        assert!(provably_within(&Expr::var_i32("x"), 0, 10, &s));
        assert!(!provably_within(&Expr::var_i32("x"), 3, 10, &s));
    }

    #[test]
    fn loop_interval_shape() {
        let i = loop_interval(&Expr::int(4), &Expr::int(8));
        assert_eq!(i.min.unwrap().as_const_int(), Some(4));
        assert_eq!(i.max.unwrap().as_const_int(), Some(11));
    }
}
