//! # halide-lower
//!
//! The optimizing compiler of the halide-rs reproduction (Sec. 4 of the
//! paper): it combines the functions describing a pipeline with a
//! fully-specified schedule for each function and synthesizes a single
//! imperative program implementing the whole pipeline.
//!
//! Pass order follows Fig. 5:
//!
//! 1. lowering & loop synthesis ([`nest`], [`inject`]),
//! 2. bounds inference by interval analysis ([`bounds`], integrated into
//!    injection; each realization's bounds are bound to
//!    `<func>.<dim>.min` / `<func>.<dim>.extent` `let`s that every loop
//!    nest and `Realize` references by name — see [`inject`] for why this
//!    keeps lowered size linear in pipeline depth),
//! 3. sliding window optimization and storage folding ([`sliding`];
//!    let-aware: bounds are resolved through the visible bindings before
//!    monotonicity is tested),
//! 4. flattening ([`flatten`]; each internal buffer's layout is resolved
//!    in place: immediates and bounds names go straight into the indices,
//!    and only compound components such as `max(f.x.extent, 64)` are bound
//!    to `let`s),
//! 5. vectorization and unrolling ([`vectorize`]; extents resolve through
//!    the visible bindings, so a let-bound constant extent still counts as
//!    constant),
//! 6. loop-invariant mask hoisting ([`licm`]; `select` conditions invariant
//!    in an enclosing loop become leading `let`s of its body, which the
//!    execution engines evaluate once per loop entry),
//! 7. simplification (after injection, after sliding and once at the end;
//!    the statement simplifier is scope-carrying, folding min/max terms over
//!    let-bound bounds names).
//!
//! Each pass assumes the previous ones ran: sliding/folding pattern-match
//! the `Realize`/`Producer` structure injection emits, flattening assumes
//! bounds are already named (so most layout components are bare names), and
//! vectorization assumes storage is flat (it rewrites `Load`/`Store`
//! indices, not `Call`/`Provide` coordinates).
//!
//! The result is a [`Module`]: a single statement plus metadata, ready for
//! the backend (`halide-exec`) to compile to closures and run. A pass-by-
//! pass walkthrough with the actual IR at each stage lives in
//! `docs/lowering.md` at the repository root.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bounds;
pub mod error;
pub mod flatten;
pub mod inject;
#[cfg(test)]
mod legality;
pub mod licm;
pub mod nest;
pub mod sliding;
pub mod vectorize;

use std::collections::BTreeMap;

use halide_ir::{simplify_stmt, Stmt, Type};
use halide_lang::Pipeline;

pub use error::{LowerError, Result};
pub use inject::{snapshot_pipeline, FuncDef};
pub use sliding::SlidingReport;

/// Options controlling which optimizations run — the sliding-window and
/// storage-folding ablation (`repro ablation`); everything on is the
/// paper's configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LowerOptions {
    /// Enable the sliding window optimization (Sec. 4.3).
    pub sliding_window: bool,
    /// Enable storage folding (Sec. 4.3).
    pub storage_folding: bool,
}

impl Default for LowerOptions {
    fn default() -> Self {
        LowerOptions {
            sliding_window: true,
            storage_folding: true,
        }
    }
}

/// Description of the pipeline's output buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutputMeta {
    /// Buffer name (the output function's name).
    pub name: String,
    /// Dimension (pure argument) names, in order.
    pub args: Vec<String>,
    /// Element type.
    pub ty: Type,
}

/// A compiled pipeline: the lowered statement plus the metadata the backend
/// needs to bind inputs and outputs.
#[derive(Debug, Clone)]
pub struct Module {
    /// Human-readable name (the output function's name).
    pub name: String,
    /// The fully lowered statement implementing the pipeline.
    pub stmt: Stmt,
    /// Output buffer description.
    pub output: OutputMeta,
    /// Names of the input images the statement loads from.
    pub inputs: Vec<String>,
    /// Per-function definitions as seen by the compiler (after inlining),
    /// useful for instrumentation and debugging.
    pub env: BTreeMap<String, FuncDef>,
    /// What the sliding-window/storage-folding pass did.
    pub sliding_report: SlidingReport,
}

impl Module {
    /// Pretty-prints the lowered statement (the equivalent of Fig. 5's
    /// right-hand column).
    pub fn pretty(&self) -> String {
        self.stmt.to_string()
    }
}

/// Compiles a pipeline with all optimizations enabled.
///
/// # Errors
///
/// Fails when the schedule is invalid for this pipeline (unknown loop levels,
/// levels that do not enclose all uses, unbounded accesses, non-constant
/// vector extents, ...).
pub fn lower(pipeline: &Pipeline) -> Result<Module> {
    lower_with_options(pipeline, &LowerOptions::default())
}

/// Compiles a pipeline with explicit [`LowerOptions`].
///
/// # Errors
///
/// Same conditions as [`lower`].
pub fn lower_with_options(pipeline: &Pipeline, options: &LowerOptions) -> Result<Module> {
    pipeline.validate_schedules()?;

    let mut env = snapshot_pipeline(pipeline);
    let order = pipeline.realization_order();
    let output = pipeline.output().name();

    // 1. Inline total-fusion functions.
    {
        let _span = halide_trace::span("lower/inline", "compile");
        inject::inline_all(&mut env, &order, &output)?;
    }

    // 2. Loop synthesis + injection + bounds inference.
    let stmt = {
        let _span = halide_trace::span("lower/inject-bounds", "compile");
        inject::build_pipeline_stmt(&env, &order, &output)?
    };

    // 3. Sliding window + storage folding.
    let (stmt, sliding_report) = {
        let _span = halide_trace::span("lower/sliding", "compile");
        let (stmt, report) = sliding::sliding_and_folding(
            &stmt,
            &env,
            options.sliding_window,
            options.storage_folding,
        );
        (simplify_stmt(&stmt), report)
    };

    // 4. Flattening.
    let stmt = {
        let _span = halide_trace::span("lower/flatten", "compile");
        flatten::flatten(&stmt)
    };

    // 5. Vectorization and unrolling.
    let stmt = {
        let _span = halide_trace::span("lower/vectorize", "compile");
        vectorize::vectorize_and_unroll(&stmt)?
    };

    // 6. Loop-invariant mask hoisting: `select` conditions that do not
    //    depend on an enclosing loop's variable are bound to `let`s at the
    //    loop-body head, where both execution engines' invariant-let peeling
    //    evaluates them once per loop entry.
    let stmt = {
        let _span = halide_trace::span("lower/licm", "compile");
        licm::hoist_invariant_masks(&stmt)
    };

    // 7. Final cleanup.
    let stmt = {
        let _span = halide_trace::span("lower/simplify", "compile");
        simplify_stmt(&stmt)
    };

    let out_def = &env[&output];
    Ok(Module {
        name: output.clone(),
        output: OutputMeta {
            name: output.clone(),
            args: out_def.args.clone(),
            ty: out_def.ty,
        },
        inputs: pipeline.input_images().into_iter().collect(),
        stmt,
        env,
        sliding_report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use halide_ir::{Expr, Type};
    use halide_lang::{Func, ImageParam, Var};

    fn blur(prefix: &str) -> (ImageParam, Func, Func) {
        let input = ImageParam::new(format!("{prefix}_in"), Type::f32(), 2);
        let (x, y) = (Var::new("x"), Var::new("y"));
        let blurx = Func::new(format!("{prefix}_blurx"));
        blurx.define(
            &[x.clone(), y.clone()],
            (input.at_clamped(vec![x.expr() - 1, y.expr()])
                + input.at_clamped(vec![x.expr(), y.expr()])
                + input.at_clamped(vec![x.expr() + 1, y.expr()]))
                / 3.0f32,
        );
        let out = Func::new(format!("{prefix}_out"));
        out.define(
            &[x.clone(), y.clone()],
            (blurx.at(vec![x.expr(), y.expr() - 1])
                + blurx.at(vec![x.expr(), y.expr()])
                + blurx.at(vec![x.expr(), y.expr() + 1]))
                / 3.0f32,
        );
        (input, blurx, out)
    }

    #[test]
    fn breadth_first_blur_lowers_end_to_end() {
        let (_in, blurx, out) = blur("lower_bf");
        let module = lower(&Pipeline::new(&out)).unwrap();
        let text = module.pretty();
        // after flattening there are no provides/calls left, only loads/stores
        assert!(text.contains(&format!("allocate {}", blurx.name())));
        assert!(text.contains(&format!("{}[", out.name())));
        assert!(!text.contains("realize "));
        assert_eq!(module.output.ty, Type::f32());
        assert_eq!(module.inputs, vec!["lower_bf_in".to_string()]);
        assert_eq!(module.output.args, vec!["x".to_string(), "y".to_string()]);
    }

    #[test]
    fn tiled_vectorized_parallel_blur_lowers() {
        let (_in, blurx, out) = blur("lower_tiled");
        out.tile_dims("x", "y", "xo", "yo", "xi", "yi", 32, 8)
            .parallelize("yo")
            .split_dim("xi", "xio", "xii", 8)
            .vectorize_dim("xii");
        blurx.compute_at(&out, "xo");
        let module = lower(&Pipeline::new(&out)).unwrap();
        let text = module.pretty();
        assert!(text.contains("parallel for"));
        assert!(text.contains("ramp("));
        assert!(!module.sliding_report.slid.contains(&blurx.name()));
    }

    #[test]
    fn sliding_window_schedule_reports() {
        let (_in, blurx, out) = blur("lower_slide");
        blurx.compute_at(&out, "y");
        blurx.store_root();
        let module = lower(&Pipeline::new(&out)).unwrap();
        assert!(module.sliding_report.slid.contains(&blurx.name()));
        assert!(module
            .sliding_report
            .folded
            .iter()
            .any(|(f, _, c)| f == &blurx.name() && *c == 3));
    }

    #[test]
    fn options_disable_optimizations() {
        let (_in, blurx, out) = blur("lower_noopt");
        blurx.compute_at(&out, "y");
        blurx.store_root();
        let module = lower_with_options(
            &Pipeline::new(&out),
            &LowerOptions {
                sliding_window: false,
                storage_folding: false,
            },
        )
        .unwrap();
        assert!(module.sliding_report.slid.is_empty());
        assert!(module.sliding_report.folded.is_empty());
    }

    #[test]
    fn unbounded_access_error_names_func_and_dimension() {
        // `g` is consumed at a data-dependent, unclamped y coordinate, so
        // bounds inference cannot bound dimension "y" of g. The error must
        // name both the function and the dimension — the diagnostic points
        // at the exact coordinate to clamp.
        let input = ImageParam::new("lower_errdim_in", Type::f32(), 2);
        let (x, y) = (Var::new("x"), Var::new("y"));
        let g = Func::new("lower_errdim_g");
        g.define(
            &[x.clone(), y.clone()],
            input.at_clamped(vec![x.expr(), y.expr()]),
        );
        let out = Func::new("lower_errdim_out");
        out.define(
            &[x.clone(), y.clone()],
            g.at(vec![
                x.expr(),
                input.at(vec![x.expr(), y.expr()]).cast(Type::i32()),
            ]),
        );
        let err = lower(&Pipeline::new(&out)).unwrap_err();
        assert_eq!(err.func(), Some("lower_errdim_g"));
        assert_eq!(err.dim(), Some("y"));
        let text = err.to_string();
        assert!(text.contains("lower_errdim_g"), "got: {text}");
        assert!(text.contains("\"y\""), "got: {text}");
    }

    #[test]
    fn invalid_schedule_is_an_error_not_a_panic() {
        let (_in, blurx, out) = blur("lower_invalid");
        // compute_at a loop dimension that does not exist in the consumer
        blurx.compute_at(&out, "zz");
        assert!(lower(&Pipeline::new(&out)).is_err());
    }

    #[test]
    fn inline_producer_disappears() {
        let (_in, blurx, out) = blur("lower_inline");
        blurx.compute_inline();
        let module = lower(&Pipeline::new(&out)).unwrap();
        let text = module.pretty();
        assert!(!text.contains(&format!("allocate {}", blurx.name())));
    }

    #[test]
    fn vectorizing_non_constant_extent_fails() {
        let (_in, _blurx, out) = blur("lower_vec_err");
        // vectorize the full x dimension, whose extent is only known at run time
        out.vectorize_dim("x");
        assert!(lower(&Pipeline::new(&out)).is_err());
    }

    #[test]
    fn tiled_schedule_lowers_with_parallel_tiles() {
        let (_in, blurx, out) = blur("lower_tiled");
        out.tile_dims("x", "y", "xo", "yo", "xi", "yi", 16, 16)
            .parallelize("yo");
        blurx.compute_at(&out, "xo");
        let module = lower(&Pipeline::new(&out)).unwrap();
        let text = module.pretty();
        assert!(text.contains(&format!("parallel for {}.yo", out.name())));
    }

    #[test]
    fn reduction_pipeline_lowers() {
        let input = ImageParam::new("lower_hist_in", Type::u8(), 2);
        let i = Var::new("i");
        let (x, y) = (Var::new("x"), Var::new("y"));
        let hist = Func::new("lower_hist");
        hist.define(&[i.clone()], Expr::int(0));
        let r = halide_lang::RDom::new(
            "r",
            vec![
                (Expr::int(0), input.width()),
                (Expr::int(0), input.height()),
            ],
        );
        let bucket = input
            .at(vec![r.x().expr(), r.y().expr()])
            .cast(Type::i32())
            .clamp(Expr::int(0), Expr::int(255));
        hist.update(vec![bucket.clone()], hist.at(vec![bucket]) + 1, Some(r));
        let out = Func::new("lower_hist_out");
        out.define(
            &[x.clone(), y.clone()],
            hist.at(vec![input
                .at(vec![x.expr(), y.expr()])
                .cast(Type::i32())
                .clamp(Expr::int(0), Expr::int(255))]),
        );
        let module = lower(&Pipeline::new(&out)).unwrap();
        let text = module.pretty();
        assert!(text.contains(&format!("allocate {}", hist.name())));
        // the reduction loop over the input domain is present
        assert!(text.contains(".s1.r.x"));
        assert!(text.contains(".s1.r.y"));
    }
}
