//! Expressions of the Halide IR.
//!
//! Expressions are immutable reference-counted trees ([`Expr`] wraps an
//! `Arc<ExprNode>`), so sharing subexpressions across a lowered pipeline is
//! cheap. The node set mirrors the paper (Sec. 2 and Sec. 4): arithmetic and
//! logic, selects, loads, calls to other pipeline stages / input images /
//! intrinsics, lets, and the `Ramp`/`Broadcast` vector nodes introduced by
//! vectorization.

use std::fmt;
use std::sync::Arc;

use crate::types::{promote, ScalarType, Type};

/// Binary arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division (Euclidean for integers, matching Halide's `div_round_to_negative_infinity`).
    Div,
    /// Remainder (Euclidean for integers: always non-negative for positive modulus).
    Mod,
    /// Minimum of the operands.
    Min,
    /// Maximum of the operands.
    Max,
}

impl BinOp {
    /// All binary operators (useful for property tests).
    pub const ALL: [BinOp; 7] = [
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::Div,
        BinOp::Mod,
        BinOp::Min,
        BinOp::Max,
    ];
}

/// Binary comparison operators producing booleans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

impl CmpOp {
    /// All comparison operators (useful for property tests).
    pub const ALL: [CmpOp; 6] = [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ];
}

/// How a [`ExprNode::Call`] is resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CallType {
    /// A call to another Halide function in the pipeline (a producer stage).
    Halide,
    /// A load from an input image parameter.
    Image,
    /// A pure math intrinsic (`sqrt`, `exp`, `abs`, ...), identified by name.
    Intrinsic,
    /// An external function provided by the host program.
    Extern,
}

/// One node of an expression tree. Use the constructors on [`Expr`] rather
/// than building nodes directly; the constructors insert the implicit type
/// promotions the frontend relies on.
#[allow(missing_docs)] // variant fields are documented at the variant level
#[derive(Debug, Clone, PartialEq)]
pub enum ExprNode {
    /// Signed integer immediate.
    IntImm { ty: Type, value: i64 },
    /// Unsigned integer immediate (also booleans, with `ty = Type::bool()`).
    UIntImm { ty: Type, value: u64 },
    /// Floating point immediate.
    FloatImm { ty: Type, value: f64 },
    /// Reinterpret the value of `value` in a different type (numeric conversion).
    Cast { ty: Type, value: Expr },
    /// A named scalar variable: loop indices, bounds symbols, parameters.
    Var { ty: Type, name: String },
    /// Binary arithmetic.
    Bin { op: BinOp, a: Expr, b: Expr },
    /// Comparison; the result is boolean (with the operands' lane count).
    Cmp { op: CmpOp, a: Expr, b: Expr },
    /// Logical and.
    And { a: Expr, b: Expr },
    /// Logical or.
    Or { a: Expr, b: Expr },
    /// Logical not.
    Not { a: Expr },
    /// `if cond then t else f`, evaluated without divergent control flow.
    Select { cond: Expr, t: Expr, f: Expr },
    /// Dense affine vector `[base, base+stride, ..., base+(lanes-1)*stride]`.
    Ramp {
        base: Expr,
        stride: Expr,
        lanes: u16,
    },
    /// `lanes` copies of a scalar.
    Broadcast { value: Expr, lanes: u16 },
    /// Scoped binding: `let name = value in body`.
    Let {
        name: String,
        value: Expr,
        body: Expr,
    },
    /// Load `ty` from the flattened buffer `name` at `index` (post-flattening).
    /// When `predicate` is present (a boolean of the same lane count as the
    /// index), lanes whose predicate is false are not read and yield zero;
    /// only enabled lanes are bounds-checked. Produced by predicated tail
    /// vectorization.
    Load {
        ty: Type,
        name: String,
        index: Expr,
        predicate: Option<Expr>,
    },
    /// A call: to another Halide func (multi-dimensional, pre-flattening), to
    /// an input image, to an intrinsic, or to an extern function.
    Call {
        ty: Type,
        name: String,
        call_type: CallType,
        args: Vec<Expr>,
    },
}

/// An immutable, reference-counted IR expression.
///
/// # Examples
///
/// ```
/// use halide_ir::Expr;
/// let x = Expr::var_i32("x");
/// let e = (x.clone() + 1) * 2;
/// assert_eq!(e.to_string(), "((x + 1)*2)");
/// ```
#[derive(Clone)]
pub struct Expr(Arc<ExprNode>);

impl fmt::Debug for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Expr({self})")
    }
}

impl PartialEq for Expr {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0) || *self.0 == *other.0
    }
}

impl From<ExprNode> for Expr {
    fn from(node: ExprNode) -> Self {
        Expr(Arc::new(node))
    }
}

impl Expr {
    /// Borrows the underlying node.
    pub fn node(&self) -> &ExprNode {
        &self.0
    }

    /// The static type of this expression.
    pub fn ty(&self) -> Type {
        match self.node() {
            ExprNode::IntImm { ty, .. }
            | ExprNode::UIntImm { ty, .. }
            | ExprNode::FloatImm { ty, .. }
            | ExprNode::Cast { ty, .. }
            | ExprNode::Var { ty, .. }
            | ExprNode::Load { ty, .. }
            | ExprNode::Call { ty, .. } => *ty,
            ExprNode::Bin { a, .. } => a.ty(),
            ExprNode::Cmp { a, .. } => Type::bool().with_lanes(a.ty().lanes()),
            ExprNode::And { a, .. } | ExprNode::Or { a, .. } | ExprNode::Not { a } => {
                Type::bool().with_lanes(a.ty().lanes())
            }
            ExprNode::Select { t, .. } => t.ty(),
            ExprNode::Ramp { base, lanes, .. } => base.ty().with_lanes(*lanes),
            ExprNode::Broadcast { value, lanes } => value.ty().with_lanes(*lanes),
            ExprNode::Let { body, .. } => body.ty(),
        }
    }

    // ---- immediates ------------------------------------------------------

    /// A 32-bit signed integer immediate.
    pub fn int(value: i32) -> Expr {
        ExprNode::IntImm {
            ty: Type::i32(),
            value: value as i64,
        }
        .into()
    }

    /// A 32-bit float immediate.
    pub fn f32(value: f32) -> Expr {
        ExprNode::FloatImm {
            ty: Type::f32(),
            value: value as f64,
        }
        .into()
    }

    /// A 64-bit float immediate.
    pub fn f64(value: f64) -> Expr {
        ExprNode::FloatImm {
            ty: Type::f64(),
            value,
        }
        .into()
    }

    /// A boolean immediate.
    pub fn bool(value: bool) -> Expr {
        ExprNode::UIntImm {
            ty: Type::bool(),
            value: value as u64,
        }
        .into()
    }

    /// An immediate of arbitrary type holding `value` (rounded/truncated to fit).
    pub fn imm_of(ty: Type, value: f64) -> Expr {
        match ty.scalar() {
            ScalarType::Float(_) => ExprNode::FloatImm { ty, value }.into(),
            ScalarType::Int(_) => ExprNode::IntImm {
                ty,
                value: value as i64,
            }
            .into(),
            ScalarType::UInt(_) => ExprNode::UIntImm {
                ty,
                value: value as u64,
            }
            .into(),
        }
    }

    /// The zero of a given type.
    pub fn zero(ty: Type) -> Expr {
        Expr::imm_of(ty, 0.0)
    }

    /// The one of a given type.
    pub fn one(ty: Type) -> Expr {
        Expr::imm_of(ty, 1.0)
    }

    // ---- variables -------------------------------------------------------

    /// A named variable of the given type.
    pub fn var(name: impl Into<String>, ty: Type) -> Expr {
        ExprNode::Var {
            ty,
            name: name.into(),
        }
        .into()
    }

    /// A named `int32` variable — the common case for loop indices and
    /// coordinates.
    pub fn var_i32(name: impl Into<String>) -> Expr {
        Expr::var(name, Type::i32())
    }

    // ---- structural constructors ------------------------------------------

    /// Numeric conversion to `ty`. A no-op if the type already matches.
    pub fn cast(&self, ty: Type) -> Expr {
        if self.ty() == ty {
            return self.clone();
        }
        ExprNode::Cast {
            ty: ty.with_lanes(self.ty().lanes()),
            value: self.clone(),
        }
        .into()
    }

    fn bin(op: BinOp, a: Expr, b: Expr) -> Expr {
        let ty = promote(a.ty(), b.ty());
        let a = a.cast(ty.element_of().with_lanes(a.ty().lanes()));
        let b = b.cast(ty.element_of().with_lanes(b.ty().lanes()));
        // Match lane counts by broadcasting the scalar side.
        let (a, b) = match (a.ty().lanes(), b.ty().lanes()) {
            (1, l) if l > 1 => (Expr::broadcast(a, l), b),
            (l, 1) if l > 1 => (a, Expr::broadcast(b, l)),
            _ => (a, b),
        };
        ExprNode::Bin { op, a, b }.into()
    }

    /// Element-wise minimum.
    pub fn min(a: Expr, b: Expr) -> Expr {
        Expr::bin(BinOp::Min, a, b)
    }

    /// Element-wise maximum.
    pub fn max(a: Expr, b: Expr) -> Expr {
        Expr::bin(BinOp::Max, a, b)
    }

    /// Clamps `self` into `[lo, hi]`. This is also the operator the paper uses
    /// to declare bounds that interval analysis cannot discover on its own.
    pub fn clamp(&self, lo: Expr, hi: Expr) -> Expr {
        Expr::max(Expr::min(self.clone(), hi), lo)
    }

    fn cmp(op: CmpOp, a: Expr, b: Expr) -> Expr {
        let ty = promote(a.ty(), b.ty());
        let a = a.cast(ty.element_of().with_lanes(a.ty().lanes()));
        let b = b.cast(ty.element_of().with_lanes(b.ty().lanes()));
        ExprNode::Cmp { op, a, b }.into()
    }

    /// `a == b`.
    pub fn eq(a: Expr, b: Expr) -> Expr {
        Expr::cmp(CmpOp::Eq, a, b)
    }
    /// `a != b`.
    pub fn ne(a: Expr, b: Expr) -> Expr {
        Expr::cmp(CmpOp::Ne, a, b)
    }
    /// `a < b`.
    pub fn lt(a: Expr, b: Expr) -> Expr {
        Expr::cmp(CmpOp::Lt, a, b)
    }
    /// `a <= b`.
    pub fn le(a: Expr, b: Expr) -> Expr {
        Expr::cmp(CmpOp::Le, a, b)
    }
    /// `a > b`.
    pub fn gt(a: Expr, b: Expr) -> Expr {
        Expr::cmp(CmpOp::Gt, a, b)
    }
    /// `a >= b`.
    pub fn ge(a: Expr, b: Expr) -> Expr {
        Expr::cmp(CmpOp::Ge, a, b)
    }

    /// Logical and.
    pub fn and(a: Expr, b: Expr) -> Expr {
        ExprNode::And { a, b }.into()
    }

    /// Logical or.
    pub fn or(a: Expr, b: Expr) -> Expr {
        ExprNode::Or { a, b }.into()
    }

    /// Logical negation.
    pub fn not(a: Expr) -> Expr {
        ExprNode::Not { a }.into()
    }

    /// `if cond then t else f`, element-wise. `t` and `f` are promoted to a
    /// common type.
    pub fn select(cond: Expr, t: Expr, f: Expr) -> Expr {
        let ty = promote(t.ty(), f.ty());
        let t = t.cast(ty.element_of().with_lanes(t.ty().lanes()));
        let f = f.cast(ty.element_of().with_lanes(f.ty().lanes()));
        ExprNode::Select { cond, t, f }.into()
    }

    /// The affine vector `[base, base+stride, ...]` with `lanes` lanes.
    pub fn ramp(base: Expr, stride: Expr, lanes: u16) -> Expr {
        ExprNode::Ramp {
            base,
            stride,
            lanes,
        }
        .into()
    }

    /// `lanes` copies of `value`.
    pub fn broadcast(value: Expr, lanes: u16) -> Expr {
        ExprNode::Broadcast { value, lanes }.into()
    }

    /// `let name = value in body`.
    pub fn let_in(name: impl Into<String>, value: Expr, body: Expr) -> Expr {
        ExprNode::Let {
            name: name.into(),
            value,
            body,
        }
        .into()
    }

    /// A flattened buffer load (produced by the flattening pass, Sec. 4.4).
    pub fn load(ty: Type, name: impl Into<String>, index: Expr) -> Expr {
        ExprNode::Load {
            ty,
            name: name.into(),
            index,
            predicate: None,
        }
        .into()
    }

    /// A predicated (masked) buffer load: lanes whose `predicate` is false
    /// are not read and yield zero. Produced by predicated tail
    /// vectorization; see [`ExprNode::Load`].
    pub fn load_predicated(
        ty: Type,
        name: impl Into<String>,
        index: Expr,
        predicate: Expr,
    ) -> Expr {
        ExprNode::Load {
            ty,
            name: name.into(),
            index,
            predicate: Some(predicate),
        }
        .into()
    }

    /// A call node. See [`CallType`] for the flavours.
    pub fn call(ty: Type, name: impl Into<String>, call_type: CallType, args: Vec<Expr>) -> Expr {
        ExprNode::Call {
            ty,
            name: name.into(),
            call_type,
            args,
        }
        .into()
    }

    /// A pure math intrinsic call, e.g. `Expr::intrinsic("sqrt", vec![x], Type::f32())`.
    pub fn intrinsic(name: impl Into<String>, args: Vec<Expr>, ty: Type) -> Expr {
        Expr::call(ty, name, CallType::Intrinsic, args)
    }

    /// Absolute value.
    pub fn abs(&self) -> Expr {
        Expr::intrinsic("abs", vec![self.clone()], self.ty())
    }

    /// Square root (computed in the expression's float type, promoting integers to f32).
    pub fn sqrt(&self) -> Expr {
        let t = if self.ty().is_float() {
            self.ty()
        } else {
            Type::f32()
        };
        Expr::intrinsic("sqrt", vec![self.cast(t)], t)
    }

    /// Natural exponential.
    pub fn exp(&self) -> Expr {
        let t = if self.ty().is_float() {
            self.ty()
        } else {
            Type::f32()
        };
        Expr::intrinsic("exp", vec![self.cast(t)], t)
    }

    /// Natural logarithm.
    pub fn log(&self) -> Expr {
        let t = if self.ty().is_float() {
            self.ty()
        } else {
            Type::f32()
        };
        Expr::intrinsic("log", vec![self.cast(t)], t)
    }

    /// `pow(self, e)`.
    pub fn pow(&self, e: Expr) -> Expr {
        let t = if self.ty().is_float() {
            self.ty()
        } else {
            Type::f32()
        };
        Expr::intrinsic("pow", vec![self.cast(t), e.cast(t)], t)
    }

    /// Hyperbolic tangent (computed in the expression's float type,
    /// promoting integers to f32).
    pub fn tanh(&self) -> Expr {
        let t = if self.ty().is_float() {
            self.ty()
        } else {
            Type::f32()
        };
        Expr::intrinsic("tanh", vec![self.cast(t)], t)
    }

    /// Four-quadrant arctangent `atan2(self, x)`.
    pub fn atan2(&self, x: Expr) -> Expr {
        let t = if self.ty().is_float() {
            self.ty()
        } else {
            Type::f32()
        };
        Expr::intrinsic("atan2", vec![self.cast(t), x.cast(t)], t)
    }

    /// Round toward negative infinity, returning a float of the same type.
    pub fn floor(&self) -> Expr {
        Expr::intrinsic("floor", vec![self.clone()], self.ty())
    }

    /// Round toward positive infinity, returning a float of the same type.
    pub fn ceil(&self) -> Expr {
        Expr::intrinsic("ceil", vec![self.clone()], self.ty())
    }

    // ---- queries ----------------------------------------------------------

    /// If this expression is an integer immediate (signed or unsigned),
    /// returns its value.
    pub fn as_const_int(&self) -> Option<i64> {
        match self.node() {
            ExprNode::IntImm { value, .. } => Some(*value),
            ExprNode::UIntImm { value, .. } => Some(*value as i64),
            ExprNode::Broadcast { value, .. } => value.as_const_int(),
            _ => None,
        }
    }

    /// If this expression is any numeric immediate, returns it as `f64`.
    pub fn as_const_f64(&self) -> Option<f64> {
        match self.node() {
            ExprNode::IntImm { value, .. } => Some(*value as f64),
            ExprNode::UIntImm { value, .. } => Some(*value as f64),
            ExprNode::FloatImm { value, .. } => Some(*value),
            ExprNode::Broadcast { value, .. } => value.as_const_f64(),
            _ => None,
        }
    }

    /// True if this is the integer constant `v`.
    pub fn is_const_int(&self, v: i64) -> bool {
        self.as_const_int() == Some(v) && !self.ty().is_float()
    }

    /// True if this is a constant equal to zero (of any numeric type).
    pub fn is_zero(&self) -> bool {
        self.as_const_f64() == Some(0.0)
    }

    /// True if this is a constant equal to one (of any numeric type).
    pub fn is_one(&self) -> bool {
        self.as_const_f64() == Some(1.0)
    }

    /// If this expression is a variable, returns its name.
    pub fn as_var(&self) -> Option<&str> {
        match self.node() {
            ExprNode::Var { name, .. } => Some(name),
            _ => None,
        }
    }
}

// ---- operator overloads ----------------------------------------------------

macro_rules! impl_binop {
    ($trait:ident, $method:ident, $op:expr) => {
        impl std::ops::$trait for Expr {
            type Output = Expr;
            fn $method(self, rhs: Expr) -> Expr {
                Expr::bin($op, self, rhs)
            }
        }
        impl std::ops::$trait<&Expr> for Expr {
            type Output = Expr;
            fn $method(self, rhs: &Expr) -> Expr {
                Expr::bin($op, self, rhs.clone())
            }
        }
        impl std::ops::$trait<Expr> for &Expr {
            type Output = Expr;
            fn $method(self, rhs: Expr) -> Expr {
                Expr::bin($op, self.clone(), rhs)
            }
        }
        impl std::ops::$trait<i32> for Expr {
            type Output = Expr;
            fn $method(self, rhs: i32) -> Expr {
                Expr::bin($op, self, Expr::int(rhs))
            }
        }
        impl std::ops::$trait<Expr> for i32 {
            type Output = Expr;
            fn $method(self, rhs: Expr) -> Expr {
                Expr::bin($op, Expr::int(self), rhs)
            }
        }
        impl std::ops::$trait<f32> for Expr {
            type Output = Expr;
            fn $method(self, rhs: f32) -> Expr {
                Expr::bin($op, self, Expr::f32(rhs))
            }
        }
        impl std::ops::$trait<Expr> for f32 {
            type Output = Expr;
            fn $method(self, rhs: Expr) -> Expr {
                Expr::bin($op, Expr::f32(self), rhs)
            }
        }
    };
}

impl_binop!(Add, add, BinOp::Add);
impl_binop!(Sub, sub, BinOp::Sub);
impl_binop!(Mul, mul, BinOp::Mul);
impl_binop!(Div, div, BinOp::Div);
impl_binop!(Rem, rem, BinOp::Mod);

impl std::ops::Neg for Expr {
    type Output = Expr;
    fn neg(self) -> Expr {
        Expr::zero(self.ty()) - self
    }
}

// ---- pretty printing --------------------------------------------------------

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.node() {
            ExprNode::IntImm { value, .. } => write!(f, "{value}"),
            ExprNode::UIntImm { ty, value } => {
                if ty.is_bool() {
                    write!(f, "{}", *value != 0)
                } else {
                    write!(f, "{value}u")
                }
            }
            ExprNode::FloatImm { value, .. } => write!(f, "{value:?}f"),
            ExprNode::Cast { ty, value } => write!(f, "{ty}({value})"),
            ExprNode::Var { name, .. } => write!(f, "{name}"),
            ExprNode::Bin { op, a, b } => match op {
                BinOp::Add => {
                    // Print addition of a negative constant as subtraction so
                    // simplified bounds expressions stay readable.
                    if let ExprNode::IntImm { value, .. } = b.node() {
                        if *value < 0 {
                            return write!(f, "({a} - {})", -value);
                        }
                    }
                    write!(f, "({a} + {b})")
                }
                BinOp::Sub => write!(f, "({a} - {b})"),
                BinOp::Mul => write!(f, "({a}*{b})"),
                BinOp::Div => write!(f, "({a}/{b})"),
                BinOp::Mod => write!(f, "({a} % {b})"),
                BinOp::Min => write!(f, "min({a}, {b})"),
                BinOp::Max => write!(f, "max({a}, {b})"),
            },
            ExprNode::Cmp { op, a, b } => {
                let s = match op {
                    CmpOp::Eq => "==",
                    CmpOp::Ne => "!=",
                    CmpOp::Lt => "<",
                    CmpOp::Le => "<=",
                    CmpOp::Gt => ">",
                    CmpOp::Ge => ">=",
                };
                write!(f, "({a} {s} {b})")
            }
            ExprNode::And { a, b } => write!(f, "({a} && {b})"),
            ExprNode::Or { a, b } => write!(f, "({a} || {b})"),
            ExprNode::Not { a } => write!(f, "!({a})"),
            ExprNode::Select { cond, t, f: fv } => write!(f, "select({cond}, {t}, {fv})"),
            ExprNode::Ramp {
                base,
                stride,
                lanes,
            } => {
                write!(f, "ramp({base}, {stride}, {lanes})")
            }
            ExprNode::Broadcast { value, lanes } => write!(f, "x{lanes}({value})"),
            ExprNode::Let { name, value, body } => {
                write!(f, "(let {name} = {value} in {body})")
            }
            ExprNode::Load {
                name,
                index,
                predicate,
                ..
            } => match predicate {
                None => write!(f, "{name}[{index}]"),
                Some(p) => write!(f, "{name}[{index}] if {p}"),
            },
            ExprNode::Call { name, args, .. } => {
                write!(f, "{name}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_builds_and_prints() {
        let x = Expr::var_i32("x");
        let y = Expr::var_i32("y");
        let e = (x.clone() + y.clone()) * 2 - 1;
        assert_eq!(e.to_string(), "(((x + y)*2) - 1)");
        assert_eq!(e.ty(), Type::i32());
    }

    #[test]
    fn type_promotion_on_binops() {
        let x = Expr::var_i32("x");
        let e = x + 1.5f32;
        assert_eq!(e.ty(), Type::f32());
    }

    #[test]
    fn comparisons_are_bool() {
        let x = Expr::var_i32("x");
        let c = Expr::lt(x, Expr::int(3));
        assert!(c.ty().is_bool());
    }

    #[test]
    fn cast_is_noop_on_same_type() {
        let x = Expr::var_i32("x");
        let c = x.cast(Type::i32());
        assert!(matches!(c.node(), ExprNode::Var { .. }));
        let c2 = c.cast(Type::f32());
        assert!(matches!(c2.node(), ExprNode::Cast { .. }));
    }

    #[test]
    fn vector_broadcast_promotion() {
        let v = Expr::ramp(Expr::int(0), Expr::int(1), 4);
        let e = v + 7;
        // scalar side must have been broadcast to 4 lanes
        assert_eq!(e.ty().lanes(), 4);
    }

    #[test]
    fn const_queries() {
        assert_eq!(Expr::int(5).as_const_int(), Some(5));
        assert!(Expr::int(0).is_zero());
        assert!(Expr::f32(1.0).is_one());
        assert!(!Expr::f32(1.0).is_const_int(1));
        assert_eq!(Expr::var_i32("x").as_var(), Some("x"));
    }

    #[test]
    fn clamp_builds_min_max() {
        let x = Expr::var_i32("x");
        let e = x.clamp(Expr::int(0), Expr::int(10));
        assert_eq!(e.to_string(), "max(min(x, 10), 0)");
    }

    #[test]
    fn select_promotes_branches() {
        let c = Expr::bool(true);
        let s = Expr::select(c, Expr::int(1), Expr::f32(2.0));
        assert_eq!(s.ty(), Type::f32());
    }

    #[test]
    fn negation() {
        let x = Expr::var_i32("x");
        assert_eq!((-x).to_string(), "(0 - x)");
    }

    #[test]
    fn equality_is_structural() {
        let a = Expr::var_i32("x") + 1;
        let b = Expr::var_i32("x") + 1;
        assert_eq!(a, b);
        let c = Expr::var_i32("y") + 1;
        assert_ne!(a, c);
    }
}
