//! Storage flattening (Sec. 4.4): multi-dimensional realizations, provides,
//! and calls become one-dimensional allocations, stores, and loads.
//!
//! The flattening convention matches the paper: the stride of the innermost
//! dimension is 1 (scanline layout), each further stride is the previous
//! stride times the previous extent, and the flattened index is the dot
//! product of (coordinate - dimension minimum) with the strides.
//!
//! Flattening resolves each internal buffer's layout itself. A dimension's
//! minimum, extent or stride that is an immediate or a bare name (`1`,
//! `f.x.min`) goes straight into every index that uses it; only a compound
//! one (`f.extent.0 = max(f.x.extent, 64)`) is bound to a `let` at the head
//! of the allocation. A `let` that merely aliased a name would cost the
//! statement simplifier a substitute-and-resimplify of everything below it.
//!
//! The one exception is capture: if the realization's body rebinds a name
//! the layout would substitute (a `let blurx.y.min = …` inside the storage
//! scope, as `store_root` plus an inner `compute_at` produces), an access
//! there would read the inner binding. Such a buffer keeps the full set of
//! `name.min.d` / `name.extent.d` / `name.stride.d` lets and indexes through
//! them, which pins each name to its value at the allocation. Input and
//! output buffers are always indexed through those symbolic names, which
//! the executor binds.

use std::collections::{HashMap, HashSet};

use halide_ir::{CallType, Expr, ExprNode, IrMutator, IrVisitor, Range, Stmt, StmtNode};

/// Name of the symbolic minimum of dimension `d` of buffer `name`.
pub fn buf_min(name: &str, d: usize) -> String {
    format!("{name}.min.{d}")
}

/// Name of the symbolic extent of dimension `d` of buffer `name`.
pub fn buf_extent(name: &str, d: usize) -> String {
    format!("{name}.extent.{d}")
}

/// Name of the symbolic stride of dimension `d` of buffer `name`.
pub fn buf_stride(name: &str, d: usize) -> String {
    format!("{name}.stride.{d}")
}

/// The flattened index expression for accessing buffer `name` at `coords`,
/// through its symbolic `name.min.d` / `name.stride.d`.
pub fn flat_index(name: &str, coords: &[Expr]) -> Expr {
    layout_index(&symbolic_dims(name, coords.len()), coords)
}

/// `(name.min.d, name.stride.d)` for each of `n` dimensions.
fn symbolic_dims(name: &str, n: usize) -> Vec<(Expr, Expr)> {
    (0..n)
        .map(|d| {
            (
                Expr::var_i32(buf_min(name, d)),
                Expr::var_i32(buf_stride(name, d)),
            )
        })
        .collect()
}

/// The dot product of `coords - min` with the strides of `dims`, simplified.
fn layout_index(dims: &[(Expr, Expr)], coords: &[Expr]) -> Expr {
    debug_assert_eq!(dims.len(), coords.len());
    let mut index = Expr::int(0);
    for ((min, stride), c) in dims.iter().zip(coords) {
        index = index + (c.clone() - min.clone()) * stride.clone();
    }
    halide_ir::simplify(&index)
}

/// True for the values a layout `let` would only alias: immediates and
/// bare names.
fn is_trivial(e: &Expr) -> bool {
    matches!(
        e.node(),
        ExprNode::IntImm { .. }
            | ExprNode::UIntImm { .. }
            | ExprNode::FloatImm { .. }
            | ExprNode::Var { .. }
    )
}

/// An internal buffer's layout: the `(min, stride)` every access uses per
/// dimension, and the `let`s (outermost first) that bind the names those
/// expressions mention.
struct Layout {
    dims: Vec<(Expr, Expr)>,
    lets: Vec<(String, Expr)>,
}

impl Layout {
    /// The resolved layout: trivial components inline, a `let` per compound
    /// one. A let-bound extent is kept only when a stride needs it.
    fn resolved(name: &str, bounds: &[Range]) -> Layout {
        fn bind(lets: &mut Vec<(String, Expr)>, name: String, value: Expr) -> Expr {
            if is_trivial(&value) {
                return value;
            }
            lets.push((name.clone(), value));
            Expr::var_i32(name)
        }
        let mut lets = Vec::new();
        let mut dims = Vec::with_capacity(bounds.len());
        let mut stride = Expr::int(1);
        for (d, r) in bounds.iter().enumerate() {
            let min = bind(&mut lets, buf_min(name, d), r.min.clone());
            // The last extent sizes the allocation but no stride.
            let extent = (d + 1 < bounds.len())
                .then(|| bind(&mut lets, buf_extent(name, d), r.extent.clone()));
            let stride_d = bind(&mut lets, buf_stride(name, d), stride.clone());
            if let Some(extent) = extent {
                stride = halide_ir::simplify(&(stride_d.clone() * extent));
            }
            dims.push((min, stride_d));
        }
        Layout { dims, lets }
    }

    /// The symbolic layout: every access goes through `name.min.d` and
    /// `name.stride.d`, and all three lets per dimension are emitted.
    fn symbolic(name: &str, bounds: &[Range]) -> Layout {
        let mut lets = Vec::new();
        for (d, r) in bounds.iter().enumerate() {
            lets.push((buf_min(name, d), r.min.clone()));
            lets.push((buf_extent(name, d), r.extent.clone()));
            let stride = if d == 0 {
                Expr::int(1)
            } else {
                Expr::var_i32(buf_stride(name, d - 1)) * Expr::var_i32(buf_extent(name, d - 1))
            };
            lets.push((buf_stride(name, d), stride));
        }
        Layout {
            dims: symbolic_dims(name, bounds.len()),
            lets,
        }
    }

    /// The names the indices mention: rebinding any of them inside the
    /// realization would change what an access there computes.
    fn index_names(&self) -> HashSet<&str> {
        self.dims
            .iter()
            .flat_map(|(min, stride)| [min, stride])
            .filter_map(|e| match e.node() {
                ExprNode::Var { name, .. } => Some(name.as_str()),
                _ => None,
            })
            .collect()
    }
}

/// True if `s` contains a `Let` or `LetStmt` binding one of `names`.
fn rebinds_any(s: &Stmt, names: &HashSet<&str>) -> bool {
    struct Finder<'a> {
        names: &'a HashSet<&'a str>,
        found: bool,
    }
    impl IrVisitor for Finder<'_> {
        fn visit_expr(&mut self, e: &Expr) {
            if self.found {
                return;
            }
            if let ExprNode::Let { name, .. } = e.node() {
                self.found |= self.names.contains(name.as_str());
            }
            halide_ir::visit_expr_children(self, e);
        }
        fn visit_stmt(&mut self, s: &Stmt) {
            if self.found {
                return;
            }
            if let StmtNode::LetStmt { name, .. } = s.node() {
                self.found |= self.names.contains(name.as_str());
            }
            halide_ir::visit_stmt_children(self, s);
        }
    }
    if names.is_empty() {
        return false;
    }
    let mut f = Finder {
        names,
        found: false,
    };
    f.visit_stmt(s);
    f.found
}

struct Flatten {
    /// Per-dimension `(min, stride)` of each internal buffer in scope; a
    /// buffer not here (an input or the output) is indexed symbolically.
    layouts: HashMap<String, Vec<(Expr, Expr)>>,
}

impl Flatten {
    fn index(&self, name: &str, coords: &[Expr]) -> Expr {
        match self.layouts.get(name) {
            Some(dims) => layout_index(dims, coords),
            None => flat_index(name, coords),
        }
    }
}

impl IrMutator for Flatten {
    fn mutate_expr(&mut self, e: &Expr) -> Expr {
        let e = halide_ir::mutate_expr_children(self, e);
        if let ExprNode::Call {
            ty,
            name,
            call_type,
            args,
        } = e.node()
        {
            if matches!(call_type, CallType::Halide | CallType::Image) {
                return Expr::load(*ty, name.clone(), self.index(name, args));
            }
        }
        e
    }

    fn mutate_stmt(&mut self, s: &Stmt) -> Stmt {
        match s.node() {
            StmtNode::Provide { name, value, args } => {
                let value = self.mutate_expr(value);
                let args: Vec<Expr> = args.iter().map(|a| self.mutate_expr(a)).collect();
                Stmt::store(name.clone(), value, self.index(name, &args))
            }
            StmtNode::Realize {
                name,
                ty,
                bounds,
                body,
            } => {
                let mut layout = Layout::resolved(name, bounds);
                if rebinds_any(body, &layout.index_names()) {
                    layout = Layout::symbolic(name, bounds);
                }
                let outer = self.layouts.insert(name.clone(), layout.dims);
                let mut wrapped = self.mutate_stmt(body);
                match outer {
                    Some(dims) => self.layouts.insert(name.clone(), dims),
                    None => self.layouts.remove(name),
                };
                for (n, v) in layout.lets.into_iter().rev() {
                    wrapped = Stmt::let_stmt(n, v, wrapped);
                }
                // Allocation size: product of extents.
                let mut size = Expr::int(1);
                for r in bounds {
                    size = size * r.extent.clone();
                }
                Stmt::allocate(name.clone(), *ty, halide_ir::simplify(&size), wrapped)
            }
            _ => halide_ir::mutate_stmt_children(self, s),
        }
    }
}

/// Flattens all multi-dimensional storage in a statement.
pub fn flatten(stmt: &Stmt) -> Stmt {
    Flatten {
        layouts: HashMap::new(),
    }
    .mutate_stmt(stmt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use halide_ir::{ForKind, Type};

    #[test]
    fn flat_index_uses_mins_and_strides() {
        let idx = flat_index("f", &[Expr::var_i32("x"), Expr::var_i32("y")]);
        let text = idx.to_string();
        assert!(text.contains("f.min.0"));
        assert!(text.contains("f.stride.1"));
    }

    fn store_xy(body_name: &str) -> Stmt {
        Stmt::provide(
            body_name,
            Expr::f32(1.0),
            vec![Expr::var_i32("x"), Expr::var_i32("y")],
        )
    }

    #[test]
    fn realize_becomes_allocate_with_layout_lets() {
        // Only the compound components are let-bound: extent.0 (which
        // stride.1 and so stride.2 need) and stride.2 itself. The minimums,
        // extent.1 and strides 0 and 1 are an immediate or a bare name and
        // go straight into the index.
        let body = Stmt::provide(
            "f",
            Expr::f32(1.0),
            vec![Expr::var_i32("x"), Expr::var_i32("y"), Expr::var_i32("c")],
        );
        let realize = Stmt::realize(
            "f",
            Type::f32(),
            vec![
                Range::new(
                    Expr::int(-1),
                    Expr::max(Expr::var_i32("f.x.extent"), Expr::int(64)),
                ),
                Range::new(Expr::var_i32("f.y.min"), Expr::var_i32("f.y.extent")),
                Range::new(Expr::int(0), Expr::int(3)),
            ],
            body,
        );
        let text = flatten(&realize).to_string();
        assert!(
            text.contains("let f.extent.0 = max(f.x.extent, 64)"),
            "{text}"
        );
        assert!(
            text.contains("let f.stride.2 = (f.extent.0*f.y.extent)"),
            "{text}"
        );
        assert_eq!(text.matches("let ").count(), 2, "{text}");
        assert!(
            text.contains("f[(((x + 1) + ((y - f.y.min)*f.extent.0)) + (c*f.stride.2))]"),
            "{text}"
        );
    }

    #[test]
    fn trivial_layouts_emit_no_lets() {
        let realize = Stmt::realize(
            "f",
            Type::f32(),
            vec![
                Range::new(Expr::var_i32("f.x.min"), Expr::var_i32("f.x.extent")),
                Range::new(Expr::int(0), Expr::int(4)),
            ],
            store_xy("f"),
        );
        let text = flatten(&realize).to_string();
        assert!(
            text.contains("allocate f[float32 * (f.x.extent*4)]"),
            "{text}"
        );
        assert!(!text.contains("let "), "{text}");
        assert!(
            text.contains("f[((x - f.x.min) + (y*f.x.extent))] = 1.0f"),
            "{text}"
        );
    }

    #[test]
    fn shadowed_layout_keeps_its_lets() {
        // The body rebinds f.y.min (as a store_root buffer computed at an
        // inner loop does), so substituting the name into the store would
        // read the inner binding. The buffer keeps its symbolic layout.
        let body = Stmt::let_stmt("f.y.min", Expr::var_i32("f.y.min") + 1, store_xy("f"));
        let realize = Stmt::realize(
            "f",
            Type::f32(),
            vec![
                Range::new(Expr::int(0), Expr::int(8)),
                Range::new(Expr::var_i32("f.y.min"), Expr::int(4)),
            ],
            body,
        );
        let text = flatten(&realize).to_string();
        assert!(text.contains("let f.min.1 = f.y.min"), "{text}");
        assert!(
            text.contains("let f.stride.1 = (f.stride.0*f.extent.0)"),
            "{text}"
        );
        assert!(text.contains("((y - f.min.1)*f.stride.1)"), "{text}");
    }

    #[test]
    fn calls_become_loads() {
        let call = Expr::call(
            Type::f32(),
            "g",
            CallType::Halide,
            vec![Expr::var_i32("x") + 1, Expr::var_i32("y")],
        );
        let s = Stmt::provide("out", call, vec![Expr::var_i32("x"), Expr::var_i32("y")]);
        let flat = flatten(&s);
        let text = flat.to_string();
        assert!(text.contains("g["));
        assert!(text.contains("out["));
        assert!(!text.contains("g(")); // no call syntax left
    }

    #[test]
    fn image_calls_also_flattened() {
        let call = Expr::call(
            Type::u8(),
            "input",
            CallType::Image,
            vec![Expr::var_i32("x")],
        );
        let s = Stmt::for_loop(
            "x",
            Expr::int(0),
            Expr::int(4),
            ForKind::Serial,
            Stmt::provide("out", call, vec![Expr::var_i32("x")]),
        );
        let text = flatten(&s).to_string();
        assert!(text.contains("input[((x - input.min.0)*input.stride.0)]"));
    }

    #[test]
    fn intrinsic_calls_are_untouched() {
        let call = Expr::intrinsic("sqrt", vec![Expr::f32(4.0)], Type::f32());
        let s = Stmt::evaluate(call);
        let text = flatten(&s).to_string();
        assert!(text.contains("sqrt(4.0f)"));
    }
}
