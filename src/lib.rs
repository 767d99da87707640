//! # halide
//!
//! A Rust reproduction of *Halide: A Language and Compiler for Optimizing
//! Parallelism, Locality, and Recomputation in Image Processing Pipelines*
//! (Ragan-Kelley et al., PLDI 2013).
//!
//! This facade crate re-exports the whole system:
//!
//! * [`lang`] — the algorithm language: [`Func`], [`Var`], [`RDom`],
//!   [`ImageParam`], [`Pipeline`] (Sec. 2 of the paper);
//! * [`schedule`] — the schedule representation: splits, loop kinds,
//!   compute/store levels (Sec. 3);
//! * [`lower`] — the compiler: lowering, bounds inference, sliding window,
//!   storage folding, flattening, vectorization (Sec. 4);
//! * [`exec`] — the backend: [`Realizer`] runs compiled pipelines on the
//!   multithreaded runtime (Sec. 4.6 substitute);
//! * [`autotune`] — the stochastic schedule search (Sec. 5);
//! * [`pipelines`] — the paper's benchmark applications (Sec. 6);
//! * [`serve`] — the compile-once / realize-many pipeline server (program
//!   cache, buffer pooling, bounded concurrent admission);
//! * [`trace`] — observability: the sampling per-Func profiler, compile
//!   telemetry, request tracing, and the chrome://tracing exporter (see
//!   `docs/observability.md`);
//! * [`ir`] and [`runtime`] — the underlying IR and runtime substrates.
//!
//! # Quickstart: the two-stage blur of Sec. 3.1
//!
//! ```
//! use halide::{Func, ImageParam, Pipeline, Realizer, Var};
//! use halide::ir::Type;
//! use halide::runtime::Buffer;
//!
//! // Algorithm (what to compute):
//! let input = ImageParam::new("quick_input", Type::f32(), 2);
//! let (x, y) = (Var::new("x"), Var::new("y"));
//! let blurx = Func::new("quick_blurx");
//! blurx.define(&[x.clone(), y.clone()],
//!     (input.at_clamped(vec![x.expr() - 1, y.expr()])
//!    + input.at_clamped(vec![x.expr(),     y.expr()])
//!    + input.at_clamped(vec![x.expr() + 1, y.expr()])) / 3.0f32);
//! let out = Func::new("quick_out");
//! out.define(&[x.clone(), y.clone()],
//!     (blurx.at(vec![x.expr(), y.expr() - 1])
//!    + blurx.at(vec![x.expr(), y.expr()])
//!    + blurx.at(vec![x.expr(), y.expr() + 1])) / 3.0f32);
//!
//! // Schedule (how to compute it) — tiled, parallel, fused:
//! out.tile_dims("x", "y", "xo", "yo", "xi", "yi", 32, 32).parallelize("yo");
//! blurx.compute_at(&out, "xo");
//!
//! // Compile and run:
//! let module = halide::lower(&Pipeline::new(&out)).unwrap();
//! let image = Buffer::from_fn_2d(halide::ir::ScalarType::Float(32), 64, 64,
//!     |x, y| (x + y) as f64);
//! let result = Realizer::new(&module)
//!     .input("quick_input", image)
//!     .realize(&[64, 64])
//!     .unwrap();
//! assert_eq!(result.output.dims()[0].extent, 64);
//! // Blurring a linear ramp reproduces it away from the borders: the 3x3
//! // average of (x + y) is (x + y).
//! assert!((result.output.at_f64(&[10, 10]) - 20.0).abs() < 1e-4);
//! assert!((result.output.at_f64(&[31, 17]) - 48.0).abs() < 1e-4);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub use halide_autotune as autotune;
pub use halide_exec as exec;
pub use halide_fuzz as fuzz;
pub use halide_ir as ir;
pub use halide_lang as lang;
pub use halide_lower as lower_crate;
pub use halide_pipelines as pipelines;
pub use halide_runtime as runtime;
pub use halide_schedule as schedule;
pub use halide_serve as serve;
pub use halide_trace as trace;

pub use halide_autotune::{Autotuner, TuneOptions};
pub use halide_exec::{Realization, Realizer};
pub use halide_ir::Expr;
pub use halide_lang::{Func, ImageParam, Param, Pipeline, RDom, Stage, Var};
pub use halide_lower::{lower, lower_with_options, LowerOptions, Module};
pub use halide_runtime::{Buffer, BufferPool, CounterSnapshot};
pub use halide_schedule::{FuncSchedule, LoopLevel, StageSchedule, TailStrategy};
pub use halide_serve::{PipelineServer, ServeConfig};
