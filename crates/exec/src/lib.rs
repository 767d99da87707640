//! # halide-exec
//!
//! The backend of the halide-rs reproduction. Where the paper's compiler
//! emits machine code through LLVM (Sec. 4.6), this crate **compiles** the
//! fully lowered statement into a register-machine [`Program`] — variable
//! names resolved to frame slots, buffers to indices, intrinsics to function
//! pointers, scalars unboxed — and executes it against the runtime: loops
//! (serial, parallel), vector values, buffer allocation and
//! indexing, and instrumentation counters.
//!
//! A tree-walking interpreter ([`eval`]) is kept as the executable reference
//! semantics; [`Realizer::backend`] selects between the two and differential
//! tests assert they agree bit-for-bit. Every scheduling decision survives
//! into execution on both engines, so the relative performance of schedules
//! — the quantity the paper's evaluation is about — is preserved. The
//! engines are documented in `docs/execution.md` at the repository root.
//!
//! The typical entry point is [`Realizer`]:
//!
//! ```
//! use halide_exec::Realizer;
//! use halide_ir::Type;
//! use halide_lang::{Func, ImageParam, Pipeline, Var};
//! use halide_lower::lower;
//! use halide_runtime::Buffer;
//!
//! // brighten(x, y) = input(x, y) * 2
//! let input = ImageParam::new("exec_doc_input", Type::f32(), 2);
//! let (x, y) = (Var::new("x"), Var::new("y"));
//! let f = Func::new("exec_doc_brighten");
//! f.define(&[x.clone(), y.clone()], input.at(vec![x.expr(), y.expr()]) * 2.0f32);
//!
//! let module = lower(&Pipeline::new(&f)).unwrap();
//! let data = Buffer::from_fn_2d(halide_ir::ScalarType::Float(32), 16, 16, |x, y| (x * y) as f64);
//! let result = Realizer::new(&module)
//!     .input("exec_doc_input", data)
//!     .realize(&[16, 16])
//!     .unwrap();
//! assert_eq!(result.output.at_f64(&[3, 4]), 24.0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod compile;
pub(crate) mod emit;
pub mod error;
pub mod eval;
pub mod machine;
pub mod opt;
pub(crate) mod pir;
pub mod realize;

pub use compile::Program;
pub use error::{ExecError, Result};
pub use eval::{eval_expr, eval_stmt, Context, Frame};
pub use opt::{OptLevel, OptReport, PassStat, PirStage};
pub use realize::{Backend, Realization, Realizer};
