//! # halide-lang
//!
//! The DSL frontend of the halide-rs reproduction: the algorithm language of
//! Sec. 2 of the paper.
//!
//! Pipelines are chains of [`Func`]s — pure functions from integer coordinates
//! to values — plus bounded reductions ([`RDom`]), reading from input images
//! ([`ImageParam`]) and scalar parameters ([`Param`]). The functions carry
//! their schedules (from `halide-schedule`), but the algorithm definition is
//! independent of all scheduling choices.
//!
//! A call made with [`Func::at`] holds a reference-counted handle on its
//! callee, so a [`Pipeline`] is exactly the graph of functions reachable
//! from its output, and its definitions are freed once no `Func`,
//! pipeline or lowered program refers to them. A function keeps the name
//! it is given; two different functions with the same name in one
//! pipeline make [`Pipeline::new`] panic.
//!
//! # Example: the two-stage blur of Sec. 3.1
//!
//! ```
//! use halide_lang::{Func, ImageParam, Pipeline, Var};
//! use halide_ir::Type;
//!
//! let input = ImageParam::new("input", Type::f32(), 2);
//! let (x, y) = (Var::new("x"), Var::new("y"));
//!
//! let blurx = Func::new("blurx");
//! blurx.define(&[x.clone(), y.clone()],
//!     (input.at_clamped(vec![x.expr() - 1, y.expr()])
//!    + input.at_clamped(vec![x.expr(),     y.expr()])
//!    + input.at_clamped(vec![x.expr() + 1, y.expr()])) / 3.0f32);
//!
//! let out = Func::new("out");
//! out.define(&[x.clone(), y.clone()],
//!     (blurx.at(vec![x.expr(), y.expr() - 1])
//!    + blurx.at(vec![x.expr(), y.expr()])
//!    + blurx.at(vec![x.expr(), y.expr() + 1])) / 3.0f32);
//!
//! let pipeline = Pipeline::new(&out);
//! assert_eq!(pipeline.len(), 2);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod analysis;
pub mod func;
pub mod image;
pub mod pipeline;
pub mod rdom;
pub mod stage;
pub mod var;

pub use analysis::{analyze, PipelineStats};
pub use func::{Func, UpdateDef};
pub use halide_schedule::TailStrategy;
pub use image::{buffer_field_var, ImageParam, Param};
pub use pipeline::{called_funcs, called_images, definition_exprs, Pipeline};
pub use rdom::{RDom, RVar};
pub use stage::Stage;
pub use var::Var;
