//! Prints the Sec. 3.1 two-stage blur after each lowering pass, and
//! regenerates the IR excerpts in `docs/lowering.md`.
//!
//! ```sh
//! cargo run --release --example lowering_stages                            # print to stdout
//! cargo run --release --example lowering_stages -- --write docs/lowering.md   # splice into the doc
//! cargo run --release --example lowering_stages -- --check docs/lowering.md   # fail on drift (CI)
//! ```
//!
//! Each excerpt is spliced between `<!-- generated:NAME -->` /
//! `<!-- /generated:NAME -->` markers (see `support`), so the walkthrough's
//! IR can never silently drift from what the compiler actually produces.

mod support;

use halide::ir::{IrVisitor, Stmt, StmtNode, Type};
use halide::lower_crate::{flatten, inject, sliding, vectorize};
use halide::{Func, ImageParam, Pipeline, Var};

/// The two-stage blur of Sec. 3.1 over input image `input_name`, with its
/// funcs named `<prefix>blurx` and `<prefix>blury`.
fn blur(prefix: &str, input_name: &str) -> (Func, Func) {
    let input = ImageParam::new(input_name, Type::f32(), 2);
    let (x, y) = (Var::new("x"), Var::new("y"));
    let blurx = Func::new(format!("{prefix}blurx"));
    blurx.define(
        &[x.clone(), y.clone()],
        (input.at_clamped(vec![x.expr() - 1, y.expr()])
            + input.at_clamped(vec![x.expr(), y.expr()])
            + input.at_clamped(vec![x.expr() + 1, y.expr()]))
            / 3.0f32,
    );
    let out = Func::new(format!("{prefix}blury"));
    out.define(
        &[x.clone(), y.clone()],
        (blurx.at(vec![x.expr(), y.expr() - 1])
            + blurx.at(vec![x.expr(), y.expr()])
            + blurx.at(vec![x.expr(), y.expr() + 1]))
            / 3.0f32,
    );
    (blurx, out)
}

/// The blur after each pass of `halide_lower::lower_with_options` up to
/// vectorization, run one at a time.
struct Passes {
    injected: Stmt,
    slid: Stmt,
    report: sliding::SlidingReport,
    flat: Stmt,
    vectorized: Stmt,
}

fn passes(out: &Func) -> Passes {
    let pipeline = Pipeline::new(out);
    pipeline
        .validate_schedules()
        .expect("the walkthrough schedules are valid");
    let mut env = inject::snapshot_pipeline(&pipeline);
    let order = pipeline.realization_order();
    let output = pipeline.output().name();
    inject::inline_all(&mut env, &order, &output).expect("inlining succeeds");

    let injected = inject::build_pipeline_stmt(&env, &order, &output).expect("the blur lowers");
    let (slid, report) = sliding::sliding_and_folding(&injected, &env, true, true);
    let slid = halide::ir::simplify_stmt(&slid);
    let flat = flatten::flatten(&slid);
    let vectorized =
        vectorize::vectorize_and_unroll(&flat).expect("vectorized extents are constant");
    Passes {
        injected,
        slid,
        report,
        flat,
        vectorized,
    }
}

/// The first sub-statement of `s` (in pre-order) that `pick` accepts.
fn find(s: &Stmt, pick: impl Fn(&StmtNode) -> bool) -> Option<Stmt> {
    struct Finder<F> {
        pick: F,
        found: Option<Stmt>,
    }
    impl<F: Fn(&StmtNode) -> bool> IrVisitor for Finder<F> {
        fn visit_stmt(&mut self, s: &Stmt) {
            if self.found.is_some() {
                return;
            }
            if (self.pick)(s.node()) {
                self.found = Some(s.clone());
                return;
            }
            halide::ir::visit_stmt_children(self, s);
        }
    }
    let mut f = Finder { pick, found: None };
    f.visit_stmt(s);
    f.found
}

/// Replaces the arguments of every call to or load from `buffer` with `…`:
/// the input-clamping subexpressions are long and say nothing about the
/// pass being shown.
fn elide(text: &str, buffer: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    while let Some(at) = rest.find(buffer) {
        let (before, after) = rest.split_at(at + buffer.len());
        out.push_str(before);
        rest = after;
        let whole_name = before[..at]
            .chars()
            .next_back()
            .is_none_or(|c| !(c.is_alphanumeric() || c == '_' || c == '.'));
        let Some(open @ ('(' | '[')) = rest.chars().next() else {
            continue;
        };
        if !whole_name {
            continue;
        }
        let mut depth = 0;
        let close = rest
            .find(|c| {
                match c {
                    '(' | '[' => depth += 1,
                    ')' | ']' => depth -= 1,
                    _ => {}
                }
                depth == 0
            })
            .expect("IR text has balanced brackets");
        out.push(open);
        out.push('…');
        out.push_str(&rest[close..close + 1]);
        rest = &rest[close + 1..];
    }
    out.push_str(rest);
    out
}

/// The walkthrough's excerpts, in document order.
fn stages() -> Vec<(&'static str, String)> {
    // The paper's Fig. 1 schedule: the output split into parallel bands of
    // 8 rows, x vectorized by 8, the horizontal pass computed per band.
    let (blurx, out) = blur("", "input");
    out.split_dim("y", "yo", "yi", 8)
        .parallelize("yo")
        .split_dim("x", "xo", "xi", 8)
        .vectorize_dim("xi");
    blurx.compute_at(&out, "yo");
    let main = passes(&out);
    assert!(main.report.slid.is_empty() && main.report.folded.is_empty());

    // The classic sliding-window schedule: blurx computed one row at a
    // time but stored at the root, so consecutive rows of blury reuse two
    // of the three blurx rows each needs.
    let (blurx, out) = blur("s", "sin");
    blurx.compute_at(&out, "y");
    blurx.store_root();
    let slide = passes(&out);

    // Stored at the root but computed per parallel band: no sliding (the
    // band loop is parallel), and each band's `let pblurx.y.min` shadows
    // the storage-level one inside the allocation.
    let (blurx, out) = blur("p", "pin");
    out.split_dim("y", "yo", "yi", 8).parallelize("yo");
    blurx.compute_at(&out, "yo");
    blurx.store_root();
    let shadowed = passes(&out);

    let allocation = |s: &Stmt, buf: &str| {
        find(
            s,
            |n| matches!(n, StmtNode::Allocate { name, .. } if name == buf),
        )
        .expect("the buffer is allocated")
    };
    let vector_loop = find(
        &main.vectorized,
        |n| matches!(n, StmtNode::For { name, .. } if name == "blury.xo"),
    )
    .expect("the blury.xo loop survives vectorization");
    vec![
        ("loop-synthesis", elide(&main.injected.to_string(), "input")),
        ("sliding-before", elide(&slide.injected.to_string(), "sin")),
        (
            "sliding-after",
            format!(
                "{}\n// slid: {:?}, folded: {:?}",
                elide(&slide.slid.to_string(), "sin"),
                slide.report.slid,
                slide.report.folded
            ),
        ),
        (
            "flatten",
            elide(&allocation(&main.flat, "blurx").to_string(), "input"),
        ),
        (
            "flatten-shadowed",
            elide(&allocation(&shadowed.flat, "pblurx").to_string(), "pin"),
        ),
        ("vectorize", vector_loop.to_string()),
    ]
}

fn main() {
    support::run("lowering_stages", &stages());
}
