//! Statements of the Halide IR.
//!
//! Statements describe the imperative program the compiler synthesizes from
//! an algorithm plus a schedule (Sec. 4). Before flattening, storage is
//! multi-dimensional (`Realize`/`Provide`); after flattening it is
//! one-dimensional (`Allocate`/`Store`).

use std::fmt;
use std::sync::Arc;

use crate::expr::Expr;
use crate::types::Type;

/// How a loop is executed. Chosen by the schedule's domain order (Sec. 3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ForKind {
    /// Ordinary sequential loop.
    Serial,
    /// Iterations are distributed over the thread pool.
    Parallel,
    /// The loop is replaced by vector expressions during vectorization; its
    /// extent must be a compile-time constant.
    Vectorized,
    /// The loop body is replicated `extent` times; the extent must be a
    /// compile-time constant.
    Unrolled,
}

impl ForKind {
    /// True if iterations may run concurrently.
    pub fn is_parallel(self) -> bool {
        self == ForKind::Parallel
    }
}

impl fmt::Display for ForKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ForKind::Serial => "for",
            ForKind::Parallel => "parallel for",
            ForKind::Vectorized => "vectorized for",
            ForKind::Unrolled => "unrolled for",
        };
        write!(f, "{s}")
    }
}

/// A half-open region along one dimension: `[min, min + extent)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Range {
    /// First coordinate of the region.
    pub min: Expr,
    /// Number of coordinates covered.
    pub extent: Expr,
}

impl Range {
    /// Creates a range from its min and extent.
    pub fn new(min: Expr, extent: Expr) -> Self {
        Range { min, extent }
    }

    /// The last coordinate contained in the range (`min + extent - 1`).
    pub fn max(&self) -> Expr {
        self.min.clone() + self.extent.clone() - 1
    }
}

impl fmt::Display for Range {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}, {})",
            self.min,
            self.min.clone() + self.extent.clone()
        )
    }
}

/// One node of a statement tree. Use the constructors on [`Stmt`].
#[allow(missing_docs)] // variant fields are documented at the variant level
#[derive(Debug, Clone, PartialEq)]
pub enum StmtNode {
    /// `let name = value` scoped over `body`.
    LetStmt {
        name: String,
        value: Expr,
        body: Stmt,
    },
    /// Runtime check; the executor aborts the realization with an error when
    /// the condition is false.
    Assert { condition: Expr, message: String },
    /// Marks the production (or consumption) region of a func; used by later
    /// passes and by instrumentation to attribute work to stages.
    Producer {
        name: String,
        is_produce: bool,
        body: Stmt,
    },
    /// A loop over `[min, min+extent)` with the given execution kind.
    For {
        name: String,
        min: Expr,
        extent: Expr,
        kind: ForKind,
        body: Stmt,
    },
    /// Multi-dimensional store into func `name` at coordinates `args`
    /// (pre-flattening form).
    Provide {
        name: String,
        value: Expr,
        args: Vec<Expr>,
    },
    /// One-dimensional store into buffer `name` (post-flattening form).
    /// When `predicate` is present (a boolean of the same lane count as the
    /// index), lanes whose predicate is false are skipped entirely — not
    /// written and not bounds-checked. Produced by predicated tail
    /// vectorization.
    Store {
        name: String,
        value: Expr,
        index: Expr,
        predicate: Option<Expr>,
    },
    /// Allocates a multi-dimensional region for func `name` spanning `bounds`,
    /// live for the duration of `body` (pre-flattening form).
    Realize {
        name: String,
        ty: Type,
        bounds: Vec<Range>,
        body: Stmt,
    },
    /// Allocates a one-dimensional buffer of `size` elements (post-flattening).
    Allocate {
        name: String,
        ty: Type,
        size: Expr,
        body: Stmt,
    },
    /// Sequential composition.
    Block { stmts: Vec<Stmt> },
    /// Conditional statement.
    IfThenElse {
        condition: Expr,
        then_case: Stmt,
        else_case: Option<Stmt>,
    },
    /// Evaluates an expression for effect (used for extern calls).
    Evaluate { value: Expr },
    /// Does nothing. Useful as an identity during transformations.
    NoOp,
}

/// An immutable, reference-counted IR statement.
#[derive(Clone)]
pub struct Stmt(Arc<StmtNode>);

impl fmt::Debug for Stmt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Stmt(\n{self})")
    }
}

impl PartialEq for Stmt {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0) || *self.0 == *other.0
    }
}

impl From<StmtNode> for Stmt {
    fn from(node: StmtNode) -> Self {
        Stmt(Arc::new(node))
    }
}

impl Stmt {
    /// Borrows the underlying node.
    pub fn node(&self) -> &StmtNode {
        &self.0
    }

    /// The no-op statement.
    pub fn no_op() -> Stmt {
        StmtNode::NoOp.into()
    }

    /// True if this is the no-op statement.
    pub fn is_no_op(&self) -> bool {
        matches!(self.node(), StmtNode::NoOp)
    }

    /// `let name = value in body`.
    pub fn let_stmt(name: impl Into<String>, value: Expr, body: Stmt) -> Stmt {
        StmtNode::LetStmt {
            name: name.into(),
            value,
            body,
        }
        .into()
    }

    /// A runtime assertion.
    pub fn assert_stmt(condition: Expr, message: impl Into<String>) -> Stmt {
        StmtNode::Assert {
            condition,
            message: message.into(),
        }
        .into()
    }

    /// A produce marker around the statements computing func `name`.
    pub fn produce(name: impl Into<String>, body: Stmt) -> Stmt {
        StmtNode::Producer {
            name: name.into(),
            is_produce: true,
            body,
        }
        .into()
    }

    /// A consume marker around the statements that read func `name`.
    pub fn consume(name: impl Into<String>, body: Stmt) -> Stmt {
        StmtNode::Producer {
            name: name.into(),
            is_produce: false,
            body,
        }
        .into()
    }

    /// A loop statement.
    pub fn for_loop(
        name: impl Into<String>,
        min: Expr,
        extent: Expr,
        kind: ForKind,
        body: Stmt,
    ) -> Stmt {
        StmtNode::For {
            name: name.into(),
            min,
            extent,
            kind,
            body,
        }
        .into()
    }

    /// Multi-dimensional store (pre-flattening).
    pub fn provide(name: impl Into<String>, value: Expr, args: Vec<Expr>) -> Stmt {
        StmtNode::Provide {
            name: name.into(),
            value,
            args,
        }
        .into()
    }

    /// One-dimensional store (post-flattening).
    pub fn store(name: impl Into<String>, value: Expr, index: Expr) -> Stmt {
        StmtNode::Store {
            name: name.into(),
            value,
            index,
            predicate: None,
        }
        .into()
    }

    /// A predicated (masked) store: lanes whose `predicate` is false are
    /// skipped — not written and not bounds-checked. Produced by predicated
    /// tail vectorization; see [`StmtNode::Store`].
    pub fn store_predicated(
        name: impl Into<String>,
        value: Expr,
        index: Expr,
        predicate: Expr,
    ) -> Stmt {
        StmtNode::Store {
            name: name.into(),
            value,
            index,
            predicate: Some(predicate),
        }
        .into()
    }

    /// Multi-dimensional allocation (pre-flattening).
    pub fn realize(name: impl Into<String>, ty: Type, bounds: Vec<Range>, body: Stmt) -> Stmt {
        StmtNode::Realize {
            name: name.into(),
            ty,
            bounds,
            body,
        }
        .into()
    }

    /// One-dimensional allocation (post-flattening).
    pub fn allocate(name: impl Into<String>, ty: Type, size: Expr, body: Stmt) -> Stmt {
        StmtNode::Allocate {
            name: name.into(),
            ty,
            size,
            body,
        }
        .into()
    }

    /// Sequential composition of two statements, dropping no-ops.
    pub fn block(first: Stmt, second: Stmt) -> Stmt {
        if first.is_no_op() {
            return second;
        }
        if second.is_no_op() {
            return first;
        }
        let mut stmts = Vec::new();
        let mut push = |s: Stmt| match s.node() {
            StmtNode::Block { stmts: inner } => stmts.extend(inner.iter().cloned()),
            _ => stmts.push(s),
        };
        push(first);
        push(second);
        StmtNode::Block { stmts }.into()
    }

    /// Sequential composition of many statements, dropping no-ops.
    pub fn block_of(stmts: impl IntoIterator<Item = Stmt>) -> Stmt {
        stmts.into_iter().fold(Stmt::no_op(), Stmt::block)
    }

    /// Conditional statement.
    pub fn if_then_else(condition: Expr, then_case: Stmt, else_case: Option<Stmt>) -> Stmt {
        StmtNode::IfThenElse {
            condition,
            then_case,
            else_case,
        }
        .into()
    }

    /// Evaluate an expression for its side effects.
    pub fn evaluate(value: Expr) -> Stmt {
        StmtNode::Evaluate { value }.into()
    }
}

// ---- pretty printing --------------------------------------------------------

fn indent(f: &mut fmt::Formatter<'_>, level: usize) -> fmt::Result {
    for _ in 0..level {
        write!(f, "  ")?;
    }
    Ok(())
}

fn fmt_stmt(s: &Stmt, f: &mut fmt::Formatter<'_>, level: usize) -> fmt::Result {
    match s.node() {
        StmtNode::LetStmt { name, value, body } => {
            indent(f, level)?;
            writeln!(f, "let {name} = {value}")?;
            fmt_stmt(body, f, level)
        }
        StmtNode::Assert { condition, message } => {
            indent(f, level)?;
            writeln!(f, "assert({condition}, \"{message}\")")
        }
        StmtNode::Producer {
            name,
            is_produce,
            body,
        } => {
            indent(f, level)?;
            writeln!(
                f,
                "{} {name} {{",
                if *is_produce { "produce" } else { "consume" }
            )?;
            fmt_stmt(body, f, level + 1)?;
            indent(f, level)?;
            writeln!(f, "}}")
        }
        StmtNode::For {
            name,
            min,
            extent,
            kind,
            body,
        } => {
            indent(f, level)?;
            writeln!(f, "{kind} {name} in [{min}, {min} + {extent}) {{")?;
            fmt_stmt(body, f, level + 1)?;
            indent(f, level)?;
            writeln!(f, "}}")
        }
        StmtNode::Provide { name, value, args } => {
            indent(f, level)?;
            write!(f, "{name}(")?;
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{a}")?;
            }
            writeln!(f, ") = {value}")
        }
        StmtNode::Store {
            name,
            value,
            index,
            predicate,
        } => {
            indent(f, level)?;
            match predicate {
                None => writeln!(f, "{name}[{index}] = {value}"),
                Some(p) => writeln!(f, "{name}[{index}] = {value} if {p}"),
            }
        }
        StmtNode::Realize {
            name,
            ty,
            bounds,
            body,
        } => {
            indent(f, level)?;
            write!(f, "realize {name} : {ty} over ")?;
            for (i, b) in bounds.iter().enumerate() {
                if i > 0 {
                    write!(f, " x ")?;
                }
                write!(f, "{b}")?;
            }
            writeln!(f, " {{")?;
            fmt_stmt(body, f, level + 1)?;
            indent(f, level)?;
            writeln!(f, "}}")
        }
        StmtNode::Allocate {
            name,
            ty,
            size,
            body,
        } => {
            indent(f, level)?;
            writeln!(f, "allocate {name}[{ty} * {size}] {{")?;
            fmt_stmt(body, f, level + 1)?;
            indent(f, level)?;
            writeln!(f, "}}")
        }
        StmtNode::Block { stmts } => {
            for s in stmts {
                fmt_stmt(s, f, level)?;
            }
            Ok(())
        }
        StmtNode::IfThenElse {
            condition,
            then_case,
            else_case,
        } => {
            indent(f, level)?;
            writeln!(f, "if ({condition}) {{")?;
            fmt_stmt(then_case, f, level + 1)?;
            if let Some(else_case) = else_case {
                indent(f, level)?;
                writeln!(f, "}} else {{")?;
                fmt_stmt(else_case, f, level + 1)?;
            }
            indent(f, level)?;
            writeln!(f, "}}")
        }
        StmtNode::Evaluate { value } => {
            indent(f, level)?;
            writeln!(f, "{value}")
        }
        StmtNode::NoOp => {
            indent(f, level)?;
            writeln!(f, "(no-op)")
        }
    }
}

impl fmt::Display for Stmt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_stmt(self, f, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_flatten_and_drop_noops() {
        let a = Stmt::evaluate(Expr::int(1));
        let b = Stmt::evaluate(Expr::int(2));
        let c = Stmt::evaluate(Expr::int(3));
        let s = Stmt::block(
            Stmt::block(a.clone(), b.clone()),
            Stmt::block(Stmt::no_op(), c),
        );
        match s.node() {
            StmtNode::Block { stmts } => assert_eq!(stmts.len(), 3),
            other => panic!("expected Block, got {other:?}"),
        }
        assert_eq!(Stmt::block(Stmt::no_op(), a.clone()), a);
        assert!(Stmt::block_of(Vec::new()).is_no_op());
    }

    #[test]
    fn range_max() {
        let r = Range::new(Expr::int(2), Expr::int(5));
        assert_eq!(r.max().to_string(), "((2 + 5) - 1)");
    }

    #[test]
    fn for_loop_prints() {
        let body = Stmt::store("buf", Expr::int(0), Expr::var_i32("x"));
        let s = Stmt::for_loop("x", Expr::int(0), Expr::int(10), ForKind::Parallel, body);
        let text = s.to_string();
        assert!(text.contains("parallel for x"));
        assert!(text.contains("buf[x] = 0"));
    }

    #[test]
    fn kinds_classify() {
        assert!(ForKind::Parallel.is_parallel());
        assert!(!ForKind::Serial.is_parallel());
    }

    #[test]
    fn structural_equality() {
        let a = Stmt::store("b", Expr::int(1), Expr::int(0));
        let b = Stmt::store("b", Expr::int(1), Expr::int(0));
        assert_eq!(a, b);
    }
}
