//! Regenerates the IR excerpts in `docs/scheduling.md`: the camera pipe
//! walked from its naive schedule to the tuned one, one scheduling
//! directive at a time.
//!
//! ```sh
//! cargo run --release --example scheduling_stages                            # print to stdout
//! cargo run --release --example scheduling_stages -- --write docs/scheduling.md   # splice into the doc
//! cargo run --release --example scheduling_stages -- --check docs/scheduling.md   # fail on drift (CI)
//! ```
//!
//! Each excerpt is spliced between `<!-- generated:NAME -->` /
//! `<!-- /generated:NAME -->` markers, so the handbook's IR can never
//! silently drift from what the compiler actually produces.

use std::fmt::Write as _;

use halide::ir::{Expr, ExprNode, Stmt, StmtNode};
use halide::pipelines::camera_pipe::CameraPipeApp;
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
    out
}

/// The "Vectorizing pyramids" chapter's excerpts: one interior downsample
/// level of the interpolate pipeline scalar vs. rounded up to full vectors,
/// the guarded main/tail partition of the output split, and a predicated
/// tail store.
fn pyramid_stages() -> Vec<(&'static str, String)> {
    let mut out = Vec::new();

    // Scalar baseline: every stage at root with parallel rows, nothing
    // vectorized — the schedule the pyramid apps shipped with while
    // divisibility-only vectorization kept their odd extents scalar.
    let app = InterpolateApp::new(3);
    for f in app.pipeline().funcs() {
        if f.name() != app.out.name() {
            f.compute_root().parallelize("y");
        }
    }
    let module = halide::lower(&app.pipeline()).expect("scalar interpolate lowers");
    out.push((
        "pyramid-scalar",
        find_produce_skeleton(&module.stmt, "interp_down_1")
            .expect("interp_down_1 has a produce nest"),
    ));

    // The tuned schedule: interior levels round up, the output guards.
    let app = InterpolateApp::new(3);
    app.schedule_good();
    let module = halide::lower(&app.pipeline()).expect("tuned interpolate lowers");
    out.push((
        "pyramid-roundup",
        find_produce_skeleton(&module.stmt, "interp_down_1")
            .expect("interp_down_1 has a produce nest"),
    ));
    out.push((
        "pyramid-output-guard",
        find_produce_skeleton(&module.stmt, "interp_out").expect("interp_out has a produce nest"),
    ));

    // The predicate variant of the output split: the tail copy stores
    // full-width with a lane mask instead of narrowing the loop.
    let app = InterpolateApp::new(3);
    for f in app.pipeline().funcs() {
        if f.name() == app.out.name() {
            continue;
        }
        f.compute_root()
            .parallelize("y")
            .split_dim_tail("x", "xo", "xi", 16, TailStrategy::RoundUp)
            .vectorize_dim("xi");
    }
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
    let args: Vec<String> = std::env::args().collect();
    let write_to = flag_value(&args, "--write");
    let check_against = flag_value(&args, "--check");

    if args.iter().any(|a| a == "--time") {
        time_stages();
        return;
    }

    let blocks = stages();

    if let Some(path) = check_against {
        let doc =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
        let mut drifted = Vec::new();
        for (name, text) in &blocks {
            match extract_block(&doc, name) {
                Some(found) if found.trim_end() == text.trim_end() => {}
                Some(_) => drifted.push(name.to_string()),
                None => drifted.push(format!("{name} (markers missing)")),
            }
        }
        if drifted.is_empty() {
            println!(
                "{path}: all {} generated IR excerpts are current",
                blocks.len()
            );
            return;
        }
        eprintln!(
            "{path}: generated IR excerpts have drifted from the compiler's output: {}",
            drifted.join(", ")
        );
        eprintln!(
            "regenerate with: cargo run --release --example scheduling_stages -- --write {path}"
        );
        std::process::exit(1);
    }

    if let Some(path) = write_to {
        let mut doc =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
        for (name, text) in &blocks {
            doc = splice_block(&doc, name, text)
                .unwrap_or_else(|| panic!("{path} has no markers for generated block {name:?}"));
        }
        std::fs::write(&path, doc).expect("writing the doc");
        println!("{path}: spliced {} generated IR excerpts", blocks.len());
        return;
    }

    for (name, text) in &blocks {
        println!("\n{}\n== {name}\n{}\n", "=".repeat(72), "=".repeat(72));
        println!("{text}");
    }
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

/// Each `CameraPipeApp` the walkthrough builds registers its funcs afresh,
/// so the registry uniquifies their names (`camera_green$3`). The suffix is
/// construction-order bookkeeping, not schedule content — strip it from the
/// excerpts (and ignore it when searching) so the doc shows the real names
/// and stays stable however many stages run first.
fn scrub(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut chars = text.chars().peekable();
    while let Some(c) = chars.next() {
        if c == '$' && chars.peek().is_some_and(|d| d.is_ascii_digit()) {
            while chars.peek().is_some_and(|d| d.is_ascii_digit()) {
                chars.next();
            }
        } else {
            out.push(c);
        }
    }
    out
}

/// A registered name without its `$n` uniquification suffix.
fn base_name(name: &str) -> &str {
    name.split('$').next().unwrap_or(name)
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

// ---- generated-block splicing ---------------------------------------------

fn markers(name: &str) -> (String, String) {
    (
        format!("<!-- generated:{name} -->"),
        format!("<!-- /generated:{name} -->"),
    )
}

/// The text between a block's markers (exclusive), without the ```text fence.
fn extract_block(doc: &str, name: &str) -> Option<String> {
    let (open, close) = markers(name);
    let start = doc.find(&open)? + open.len();
    let end = doc[start..].find(&close)? + start;
    let body = &doc[start..end];
    let body = body.trim_start_matches('\n');
    let body = body.strip_prefix("```text\n")?;
    let body = body
        .strip_suffix("```\n")
        .or_else(|| body.strip_suffix("```"))?;
    Some(body.to_string())
}

/// Replaces a block's contents, keeping the markers and the ```text fence.
fn splice_block(doc: &str, name: &str, text: &str) -> Option<String> {
    let (open, close) = markers(name);
    let start = doc.find(&open)? + open.len();
    let end = doc[start..].find(&close)? + start;
    let mut out = String::with_capacity(doc.len() + text.len());
    out.push_str(&doc[..start]);
    out.push_str("\n```text\n");
    out.push_str(text.trim_end());
    out.push_str("\n```\n");
    out.push_str(&doc[end..]);
    Some(out)
}

// ---- IR skeletons ---------------------------------------------------------

/// Lowers the app with its current schedule and prints the loop-nest
/// skeleton: loops, produces, allocations, and one-line elided stores.
fn skeleton_of(app: &CameraPipeApp) -> String {
    let module = halide::lower(&app.pipeline()).expect("camera pipe lowers");
    let mut out = String::new();
    skeleton(&module.stmt, 0, &mut out);
    scrub(&out)
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
        StmtNode::Store { name, .. } if base_name(name) == buf => {
            Some(scrub(&wrap(&s.to_string(), 76)))
        }
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
        } if base_name(name) == buf => Some(scrub(&wrap(&s.to_string(), 76))),
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

/// The skeleton of the `produce` nest for `func` (wherever it sits).
fn find_produce_skeleton(s: &Stmt, func: &str) -> Option<String> {
    match s.node() {
        StmtNode::Producer {
            name, is_produce, ..
        } if *is_produce && base_name(name) == func => {
            let mut out = String::new();
            skeleton(s, 0, &mut out);
            Some(scrub(&out))
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
