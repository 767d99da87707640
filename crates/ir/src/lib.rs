//! # halide-ir
//!
//! The intermediate representation underlying the halide-rs reproduction of
//! *Halide: A Language and Compiler for Optimizing Parallelism, Locality, and
//! Recomputation in Image Processing Pipelines* (PLDI 2013).
//!
//! This crate provides the building blocks every other crate works with:
//!
//! * [`Type`] / [`ScalarType`] — the value types of the language;
//! * [`Expr`] — immutable expression trees (arithmetic, selects, calls,
//!   loads, ramps/broadcasts, lets);
//! * [`Stmt`] — the imperative statements the compiler synthesizes (loops,
//!   realizations/allocations, provides/stores, producer-consumer markers);
//! * [`IrVisitor`] / [`IrMutator`] — traversal traits used to write passes;
//! * [`Scope`] — lexical name bindings;
//! * [`simplify()`] — constant folding and algebraic simplification
//!   (scope-carrying for statements, see [`simplify_stmt`]);
//! * [`interval`] — the interval analysis that powers bounds inference.
//!
//! # Example
//!
//! ```
//! use halide_ir::{Expr, simplify, Scope, interval::{bounds_of_expr_in_scope, Interval}};
//!
//! // blurx(x) accesses in(x-1) .. in(x+1); what region of `in` does a tile
//! // of 32 pixels starting at `x0` need?
//! let x = Expr::var_i32("x");
//! let mut scope = Scope::new();
//! scope.push("x", Interval::new(Expr::var_i32("x0"), Expr::var_i32("x0") + 31));
//! let b = bounds_of_expr_in_scope(&(x + 1), &scope);
//! assert_eq!(simplify(&b.max.unwrap()).to_string(), "(x0 + 32)");
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod expr;
pub mod interval;
pub mod scope;
pub mod simplify;
pub mod stmt;
pub mod substitute;
pub mod types;
pub mod visit;

pub use expr::{BinOp, CallType, CmpOp, Expr, ExprNode, FuncRef};
pub use interval::Interval;
pub use scope::Scope;
pub use simplify::{const_int, simplify, simplify_stmt};
pub use stmt::{ForKind, Range, Stmt, StmtNode};
pub use substitute::{
    substitute, substitute_in_stmt, substitute_map, substitute_map_in_stmt, LetResolver,
};
pub use types::{promote, ScalarType, Type};
pub use visit::{
    expr_node_count, expr_uses_var, free_vars, mutate_expr_children, mutate_stmt_children,
    stmt_uses_var, visit_expr_children, visit_stmt_children, IrMutator, IrVisitor,
};
