//! Reduction domains.
//!
//! A reduction function (Sec. 2, "Reduction functions") is defined by an
//! initial value plus an update applied at every point of a bounded
//! *reduction domain*, visited in lexicographic order. `RDom` declares that
//! domain; its dimensions ([`RVar`]) can then appear in the update's
//! coordinates and value.

use halide_ir::{Expr, Range};

/// One dimension of a reduction domain, spanning `[min, min + extent)`.
#[derive(Debug, Clone, PartialEq)]
pub struct RVar {
    name: String,
    min: Expr,
    extent: Expr,
}

impl RVar {
    /// Creates a reduction variable with explicit bounds.
    pub fn new(name: impl Into<String>, min: Expr, extent: Expr) -> Self {
        RVar {
            name: name.into(),
            min,
            extent,
        }
    }

    /// The variable's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The lower bound of the domain along this dimension.
    pub fn min(&self) -> &Expr {
        &self.min
    }

    /// The number of points along this dimension.
    pub fn extent(&self) -> &Expr {
        &self.extent
    }

    /// The range `[min, min+extent)` as an IR range.
    pub fn range(&self) -> Range {
        Range::new(self.min.clone(), self.extent.clone())
    }

    /// This reduction variable as an `int32` IR expression.
    pub fn expr(&self) -> Expr {
        Expr::var_i32(self.name.clone())
    }
}

impl From<&RVar> for Expr {
    fn from(r: &RVar) -> Expr {
        r.expr()
    }
}

impl From<RVar> for Expr {
    fn from(r: RVar) -> Expr {
        r.expr()
    }
}

macro_rules! impl_rvar_op {
    ($trait:ident, $method:ident) => {
        impl std::ops::$trait<i32> for &RVar {
            type Output = Expr;
            fn $method(self, rhs: i32) -> Expr {
                std::ops::$trait::$method(self.expr(), rhs)
            }
        }
        impl std::ops::$trait<Expr> for &RVar {
            type Output = Expr;
            fn $method(self, rhs: Expr) -> Expr {
                std::ops::$trait::$method(self.expr(), rhs)
            }
        }
    };
}

impl_rvar_op!(Add, add);
impl_rvar_op!(Sub, sub);
impl_rvar_op!(Mul, mul);
impl_rvar_op!(Div, div);
impl_rvar_op!(Rem, rem);

/// A multi-dimensional reduction domain.
///
/// # Examples
///
/// ```
/// use halide_lang::RDom;
/// use halide_ir::Expr;
/// // the 2-D domain [0,width) x [0,height)
/// let r = RDom::new("r", vec![
///     (Expr::int(0), Expr::var_i32("width")),
///     (Expr::int(0), Expr::var_i32("height")),
/// ]);
/// assert_eq!(r.dims().len(), 2);
/// assert_eq!(r.x().name(), "r.x");
/// assert_eq!(r.y().name(), "r.y");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RDom {
    name: String,
    dims: Vec<RVar>,
}

impl RDom {
    /// Creates a reduction domain from `(min, extent)` pairs. Dimensions are
    /// named `<name>.x`, `<name>.y`, `<name>.z`, `<name>.w`, then
    /// `<name>.d4`, `<name>.d5`, ...
    pub fn new(name: impl Into<String>, ranges: Vec<(Expr, Expr)>) -> Self {
        let name = name.into();
        let dims = ranges
            .into_iter()
            .enumerate()
            .map(|(i, (min, extent))| {
                let suffix = match i {
                    0 => "x".to_string(),
                    1 => "y".to_string(),
                    2 => "z".to_string(),
                    3 => "w".to_string(),
                    n => format!("d{n}"),
                };
                RVar::new(format!("{name}.{suffix}"), min, extent)
            })
            .collect();
        RDom { name, dims }
    }

    /// A domain over the given, already named, reduction variables.
    pub(crate) fn from_rvars(name: impl Into<String>, dims: Vec<RVar>) -> Self {
        RDom {
            name: name.into(),
            dims,
        }
    }

    /// A one-dimensional domain over `[min, min+extent)`.
    pub fn over(name: impl Into<String>, min: i32, extent: i32) -> Self {
        RDom::new(name, vec![(Expr::int(min), Expr::int(extent))])
    }

    /// The domain's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All dimensions of the domain, in lexicographic (outermost-last) order.
    pub fn dims(&self) -> &[RVar] {
        &self.dims
    }

    /// The first dimension.
    ///
    /// # Panics
    ///
    /// Panics if the domain has no dimensions.
    pub fn x(&self) -> &RVar {
        &self.dims[0]
    }

    /// The second dimension.
    ///
    /// # Panics
    ///
    /// Panics if the domain has fewer than two dimensions.
    pub fn y(&self) -> &RVar {
        &self.dims[1]
    }

    /// The third dimension.
    ///
    /// # Panics
    ///
    /// Panics if the domain has fewer than three dimensions.
    pub fn z(&self) -> &RVar {
        &self.dims[2]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_dimensional_helper() {
        let r = RDom::over("ri", 0, 256);
        assert_eq!(r.dims().len(), 1);
        assert_eq!(r.x().min().as_const_int(), Some(0));
        assert_eq!(r.x().extent().as_const_int(), Some(256));
        assert_eq!(r.x().expr().to_string(), "ri.x");
    }

    #[test]
    fn dimension_naming() {
        let r = RDom::new("r", (0..6).map(|_| (Expr::int(0), Expr::int(4))).collect());
        let names: Vec<&str> = r.dims().iter().map(|d| d.name()).collect();
        assert_eq!(names, vec!["r.x", "r.y", "r.z", "r.w", "r.d4", "r.d5"]);
    }

    #[test]
    fn rvar_arithmetic() {
        let r = RDom::over("r", 0, 10);
        assert_eq!((r.x() - 1).to_string(), "(r.x - 1)");
        assert_eq!((r.x() + 1).to_string(), "(r.x + 1)");
    }

    #[test]
    fn range_roundtrip() {
        let r = RVar::new("q", Expr::int(3), Expr::int(7));
        let range = r.range();
        assert_eq!(range.min.as_const_int(), Some(3));
        assert_eq!(range.extent.as_const_int(), Some(7));
    }
}
