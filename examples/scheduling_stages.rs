//! Regenerates the IR excerpts in `docs/scheduling.md`: the camera pipe
//! walked from its naive schedule to the tuned one, one scheduling
//! directive at a time, the pyramid tail strategies, and histogram
//! equalization's factored reduction.
//!
//! ```sh
//! cargo run --release --example scheduling_stages                            # print to stdout
//! cargo run --release --example scheduling_stages -- --write docs/scheduling.md   # splice into the doc
//! cargo run --release --example scheduling_stages -- --check docs/scheduling.md   # fail on drift (CI)
//! ```
//!
//! Each excerpt is spliced between `<!-- generated:NAME -->` /
//! `<!-- /generated:NAME -->` markers (see `support`), so the handbook's IR
//! can never silently drift from what the compiler actually produces.

mod support;

use std::fmt::Write as _;

use halide::ir::{Expr, ExprNode, Stmt, StmtNode};
use halide::pipelines::camera_pipe::CameraPipeApp;
use halide::pipelines::histogram::HistogramApp;
use halide::pipelines::interpolate::InterpolateApp;
use halide::TailStrategy;

/// The five schedules of the walkthrough. Stage 1 is the naive
/// breadth-first default; each later stage adds one directive; stage 5 is
/// exactly `CameraPipeApp::schedule_good`.
const STAGE_NAMES: [&str; 5] = [
    "stage1-naive",
    "stage2-fuse",
    "stage3-parallel",
    "stage4-reorder",
    "stage5-vectorize",
];

/// Builds a fresh camera pipe with the schedule of walkthrough stage `n`.
fn staged_app(n: usize) -> CameraPipeApp {
    let app = CameraPipeApp::new(2.2, 0.8);
    if n >= 5 {
        app.schedule_good();
        return app;
    }
    if n >= 2 {
        // compute_at: the whole chain per strip of 16 scanlines.
        app.curve.compute_root();
        app.out.split_dim("y", "yo", "yi", 16);
        for f in stage_funcs(&app) {
            f.compute_at(&app.out, "yo");
        }
    }
    if n >= 3 {
        // parallelize the strip loop.
        app.out.parallelize("yo");
    }
    if n >= 4 {
        // reorder the channel loop inside the strip loop.
        app.out.reorder_dims(&["yo", "c", "yi", "x"]);
    }
    app
}

/// The scheduling stages of the walkthrough, in handbook order.
fn stages() -> Vec<(&'static str, String)> {
    let mut out = Vec::new();
    for (i, name) in STAGE_NAMES.iter().enumerate() {
        out.push((*name, skeleton_of(&staged_app(i + 1))));
    }

    // The vectorized demosaic store: ramps, dense loads, a masked select.
    let app = CameraPipeApp::new(2.2, 0.8);
    app.schedule_good();
    let module = halide::lower(&app.pipeline()).expect("tuned camera pipe lowers");
    out.push((
        "green-store-vectorized",
        find_store(&module.stmt, "camera_green").expect("camera_green is stored somewhere"),
    ));

    // The hoisted channel masks of the colour-matrix stage.
    out.push((
        "corrected-masks",
        find_produce_skeleton(&module.stmt, "camera_corrected")
            .expect("camera_corrected has a produce nest"),
    ));

    out.extend(pyramid_stages());
    out.extend(histogram_stages());
    out
}

/// The "Scheduling a reduction" chapter's excerpts: histogram
/// equalization's scatter under the naive schedule, then factored by
/// `rfactor` into 64 private histograms and merged, at a width (67) that
/// leaves a partial last tile of `r.x`.
fn histogram_stages() -> Vec<(&'static str, String)> {
    let (w, h) = (67, 49);
    let app = HistogramApp::new(w, h);
    let module = halide::lower(&app.pipeline()).expect("naive histogram lowers");
    let mut out = vec![(
        "histogram-naive",
        find_produce(&module.stmt, "histeq_hist").expect("histeq_hist has a produce nest"),
    )];
    let app = HistogramApp::new(w, h);
    app.schedule_good();
    let module = halide::lower(&app.pipeline()).expect("tuned histogram lowers");
    out.push((
        "histogram-factored",
        find_produce(&module.stmt, "histeq_hist_intm")
            .expect("histeq_hist_intm has a produce nest"),
    ));
    out.push((
        "histogram-merge",
        find_produce(&module.stmt, "histeq_hist").expect("histeq_hist has a produce nest"),
    ));
    out
}

/// The "Vectorizing pyramids" chapter's excerpts: one interior downsample
/// level of the interpolate pipeline scalar, rounded up to 16-lane
/// vectors, and shifted inwards at its tuned width with its region grown
/// to one vector; the guarded main/tail partition of the output split; and
/// a predicated tail store.
fn pyramid_stages() -> Vec<(&'static str, String)> {
    let mut out = Vec::new();
    // Every stage but the output at root with parallel rows, its x loop
    // split by `lanes` with `tail` (unsplit when `None`).
    let interior = |app: &InterpolateApp, split: Option<(i64, TailStrategy)>| {
        for f in app.pipeline().funcs() {
            if f.name() == app.out.name() {
                continue;
            }
            f.compute_root().parallelize("y");
            if let Some((lanes, tail)) = split {
                f.split_dim_tail("x", "xo", "xi", lanes, tail)
                    .vectorize_dim("xi");
            }
        }
    };

    // Scalar baseline: nothing vectorized — the schedule the pyramid apps
    // shipped with while divisibility-only vectorization kept their odd
    // extents scalar.
    let app = InterpolateApp::new(3);
    interior(&app, None);
    let module = halide::lower(&app.pipeline()).expect("scalar interpolate lowers");
    out.push((
        "pyramid-scalar",
        find_produce_skeleton(&module.stmt, "interp_down_1")
            .expect("interp_down_1 has a produce nest"),
    ));

    // Every level rounded up to whole 16-lane vectors.
    let app = InterpolateApp::new(3);
    interior(&app, Some((16, TailStrategy::RoundUp)));
    let module = halide::lower(&app.pipeline()).expect("rounded-up interpolate lowers");
    out.push((
        "pyramid-roundup",
        find_produce_skeleton(&module.stmt, "interp_down_1")
            .expect("interp_down_1 has a produce nest"),
    ));

    // The tuned schedule: interior levels shift inwards at their level's
    // width, the output guards.
    let app = InterpolateApp::new(3);
    app.schedule_good();
    let module = halide::lower(&app.pipeline()).expect("tuned interpolate lowers");
    out.push((
        "pyramid-shift-inwards",
        ["interp_down_1.x.extent", "interp_down_1.x"]
            .iter()
            .map(|name| find_let(&module.stmt, name).expect("interp_down_1 binds it"))
            .collect(),
    ));
    out.push((
        "pyramid-output-guard",
        find_produce_skeleton(&module.stmt, "interp_out").expect("interp_out has a produce nest"),
    ));

    // The predicate variant of the output split: the tail copy stores
    // full-width with a lane mask instead of narrowing the loop.
    let app = InterpolateApp::new(3);
    interior(&app, Some((16, TailStrategy::ShiftInwards)));
    app.out
        .split_dim_tail("x", "xo", "xi", 16, TailStrategy::Predicate)
        .vectorize_dim("xi");
    let module = halide::lower(&app.pipeline()).expect("predicated interpolate lowers");
    out.push((
        "pyramid-predicate-store",
        find_predicated_store(&module.stmt, "interp_out")
            .expect("the predicate tail stores interp_out with a mask"),
    ));

    out
}

fn stage_funcs(app: &CameraPipeApp) -> [&halide::Func; 6] {
    [
        &app.denoised,
        &app.green,
        &app.red,
        &app.blue,
        &app.corrected,
        &app.curved,
    ]
}

fn main() {
    if std::env::args().any(|a| a == "--time") {
        time_stages();
        return;
    }
    support::run("scheduling_stages", &stages());
}

/// Runs every walkthrough stage on both execution engines and prints the
/// timing progression quoted (as a point-in-time snapshot) by
/// `docs/scheduling.md`. Sizes match `BENCH_exec.json`'s interp-vs-compiled
/// rows.
fn time_stages() {
    use halide::exec::Backend;
    let (w, h, threads, reps) = (192i64, 128i64, 2usize, 3usize);
    let raw = halide::pipelines::camera_pipe::make_raw_input(w, h);
    println!("camera pipe, {w}x{h}, {threads} threads, best of {reps}:");
    println!(
        "{:<18} {:>12} {:>12} {:>9}",
        "stage", "interp", "compiled", "speedup"
    );
    for (i, name) in STAGE_NAMES.iter().enumerate() {
        let app = staged_app(i + 1);
        let module = halide::lower(&app.pipeline()).expect("stage lowers");
        let mut times = [f64::MAX; 2];
        for (b, backend) in [Backend::Interp, Backend::Compiled].into_iter().enumerate() {
            let realizer = halide::Realizer::new(&module)
                .input(app.input.name(), raw.clone())
                .threads(threads)
                .instrument(false)
                .backend(backend);
            for _ in 0..reps {
                let r = realizer.realize(&[w, h, 3]).expect("stage runs");
                times[b] = times[b].min(r.wall_time.as_secs_f64());
            }
        }
        println!(
            "{:<18} {:>10.1}ms {:>10.1}ms {:>8.2}x",
            name,
            times[0] * 1e3,
            times[1] * 1e3,
            times[0] / times[1]
        );
    }
}

// ---- IR skeletons ---------------------------------------------------------

/// Lowers the app with its current schedule and prints the loop-nest
/// skeleton: loops, produces, allocations, and one-line elided stores.
fn skeleton_of(app: &CameraPipeApp) -> String {
    let module = halide::lower(&app.pipeline()).expect("camera pipe lowers");
    let mut out = String::new();
    skeleton(&module.stmt, 0, &mut out);
    out
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

/// Renders an expression if it is short, `…` otherwise — skeletons show
/// structure, not arithmetic.
fn short(e: &Expr) -> String {
    let s = e.to_string();
    if s.len() <= 48 {
        s
    } else {
        "…".to_string()
    }
}

fn skeleton(s: &Stmt, depth: usize, out: &mut String) {
    match s.node() {
        StmtNode::For {
            name,
            min,
            extent,
            kind,
            body,
        } => {
            indent(out, depth);
            let _ = writeln!(
                out,
                "{kind} {name} in [{}, {} + {})",
                short(min),
                short(min),
                short(extent)
            );
            skeleton(body, depth + 1, out);
        }
        StmtNode::Producer {
            name,
            is_produce,
            body,
        } => {
            if *is_produce {
                indent(out, depth);
                let _ = writeln!(out, "produce {name}:");
                skeleton(body, depth + 1, out);
            } else {
                skeleton(body, depth, out);
            }
        }
        StmtNode::Allocate {
            name,
            ty,
            size,
            body,
        } => {
            indent(out, depth);
            let _ = writeln!(out, "allocate {name}[{ty} * {}]", short(size));
            skeleton(body, depth, out);
        }
        StmtNode::LetStmt { name, value, body } => {
            indent(out, depth);
            let _ = writeln!(out, "let {name} = {}", short(value));
            skeleton(body, depth, out);
        }
        StmtNode::Block { stmts } => {
            for s in stmts {
                skeleton(s, depth, out);
            }
        }
        StmtNode::Store { name, index, .. } => {
            indent(out, depth);
            let _ = writeln!(out, "{name}[{}] = …", short(index));
        }
        StmtNode::IfThenElse {
            condition,
            then_case,
            else_case,
        } => {
            indent(out, depth);
            let _ = writeln!(out, "if {}:", short(condition));
            skeleton(then_case, depth + 1, out);
            if let Some(e) = else_case {
                indent(out, depth);
                out.push_str("else:\n");
                skeleton(e, depth + 1, out);
            }
        }
        StmtNode::Assert { .. }
        | StmtNode::Evaluate { .. }
        | StmtNode::NoOp
        | StmtNode::Provide { .. }
        | StmtNode::Realize { .. } => {}
    }
}

/// The full text of the first `Store` into `buf` (wrapped for readability).
fn find_store(s: &Stmt, buf: &str) -> Option<String> {
    match s.node() {
        StmtNode::Store { name, .. } if name == buf => Some(wrap(&s.to_string(), 76)),
        StmtNode::For { body, .. }
        | StmtNode::Producer { body, .. }
        | StmtNode::Allocate { body, .. }
        | StmtNode::LetStmt { body, .. } => find_store(body, buf),
        StmtNode::Block { stmts } => stmts.iter().find_map(|s| find_store(s, buf)),
        StmtNode::IfThenElse {
            then_case,
            else_case,
            ..
        } => find_store(then_case, buf)
            .or_else(|| else_case.as_ref().and_then(|e| find_store(e, buf))),
        _ => None,
    }
}

/// The full text of the first *predicated* `Store` into `buf` — the masked
/// tail store a `TailStrategy::Predicate` split emits.
fn find_predicated_store(s: &Stmt, buf: &str) -> Option<String> {
    match s.node() {
        StmtNode::Store {
            name,
            predicate: Some(_),
            ..
        } if name == buf => Some(wrap(&s.to_string(), 76)),
        StmtNode::For { body, .. }
        | StmtNode::Producer { body, .. }
        | StmtNode::Allocate { body, .. }
        | StmtNode::LetStmt { body, .. } => find_predicated_store(body, buf),
        StmtNode::Block { stmts } => stmts.iter().find_map(|s| find_predicated_store(s, buf)),
        StmtNode::IfThenElse {
            then_case,
            else_case,
            ..
        } => find_predicated_store(then_case, buf).or_else(|| {
            else_case
                .as_ref()
                .and_then(|e| find_predicated_store(e, buf))
        }),
        _ => None,
    }
}

/// The first `let name = …` binding in `s` (wrapped for readability),
/// without its body.
fn find_let(s: &Stmt, name: &str) -> Option<String> {
    match s.node() {
        StmtNode::LetStmt {
            name: bound, value, ..
        } if bound == name => Some(wrap(&format!("let {bound} = {value}"), 76)),
        StmtNode::For { body, .. }
        | StmtNode::Producer { body, .. }
        | StmtNode::Allocate { body, .. }
        | StmtNode::LetStmt { body, .. } => find_let(body, name),
        StmtNode::Block { stmts } => stmts.iter().find_map(|s| find_let(s, name)),
        StmtNode::IfThenElse {
            then_case,
            else_case,
            ..
        } => {
            find_let(then_case, name).or_else(|| else_case.as_ref().and_then(|e| find_let(e, name)))
        }
        _ => None,
    }
}

/// The full text of the `produce` nest for `func` (wrapped for
/// readability), wherever it sits.
fn find_produce(s: &Stmt, func: &str) -> Option<String> {
    match s.node() {
        StmtNode::Producer {
            name, is_produce, ..
        } if *is_produce && name == func => Some(wrap(&s.to_string(), 76)),
        StmtNode::For { body, .. }
        | StmtNode::Producer { body, .. }
        | StmtNode::Allocate { body, .. }
        | StmtNode::LetStmt { body, .. } => find_produce(body, func),
        StmtNode::Block { stmts } => stmts.iter().find_map(|s| find_produce(s, func)),
        _ => None,
    }
}

/// The skeleton of the `produce` nest for `func` (wherever it sits).
fn find_produce_skeleton(s: &Stmt, func: &str) -> Option<String> {
    match s.node() {
        StmtNode::Producer {
            name, is_produce, ..
        } if *is_produce && name == func => {
            let mut out = String::new();
            skeleton(s, 0, &mut out);
            Some(out)
        }
        StmtNode::For { body, .. }
        | StmtNode::Producer { body, .. }
        | StmtNode::Allocate { body, .. }
        | StmtNode::LetStmt { body, .. } => find_produce_skeleton(body, func),
        StmtNode::Block { stmts } => stmts.iter().find_map(|s| find_produce_skeleton(s, func)),
        StmtNode::IfThenElse {
            then_case,
            else_case,
            ..
        } => find_produce_skeleton(then_case, func).or_else(|| {
            else_case
                .as_ref()
                .and_then(|e| find_produce_skeleton(e, func))
        }),
        _ => None,
    }
}

/// Greedy soft-wrap at spaces so the giant one-line stores fit a code block.
fn wrap(s: &str, width: usize) -> String {
    let mut out = String::new();
    for line in s.lines() {
        let mut col = 0;
        for tok in line.split_inclusive(' ') {
            if col + tok.len() > width && col > 0 {
                out.push('\n');
                out.push_str("    ");
                col = 4;
            }
            out.push_str(tok);
            col += tok.len();
        }
        out.push('\n');
    }
    out
}

// Keep the skeleton printer honest about unhandled shapes.
#[allow(dead_code)]
fn exhaustiveness_reminder(e: &ExprNode) {
    let _ = e;
}
