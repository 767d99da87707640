//! The compile pass: lowers a [`halide_ir::Stmt`] into a flat
//! register-machine program.
//!
//! The tree-walking interpreter in [`crate::eval`] re-hashes variable names,
//! re-matches `ExprNode` variants and heap-allocates a `Vec`-backed
//! [`halide_runtime::Value`] for every scalar on every iteration.
//! Compilation removes all of that **ahead of execution**, playing the role
//! of the paper's LLVM code generation step (Sec. 4.6) for this repository's
//! runtime. It runs as three explicit layers (see `docs/optimizer.md` at the
//! repository root):
//!
//! 1. **linearize** (`pir.rs`): resolve every variable to a numeric
//!    frame slot, every buffer to an index, every intrinsic to a function
//!    pointer, and flatten the statement into the linear program IR —
//!    basic blocks over virtual registers, with explicit loop/alloc regions
//!    and side-effect annotations on buffer operations;
//! 2. **optimize** ([`crate::opt`]): one walk over PIR that runs strength
//!    reduction, loop-invariant hoisting (which subsumes the old
//!    compile-time peeling of loop-leading `let`s), CSE and DCE once each,
//!    selected by [`OptLevel`];
//! 3. **emit** (`emit.rs`): translate the optimized PIR to the
//!    [`crate::machine`] instruction set: expressions become linearized
//!    trees of `CExpr` nodes over **unboxed** [`halide_runtime::Scalar`]
//!    values; vector lanes are only materialized where vectorization
//!    actually put `ramp`/`broadcast` nodes.
//!
//! Symbols and buffers the statement does not bind internally become the
//! program's *free* slots; [`crate::Realizer`] binds them from the module's
//! inputs, parameters, and output metadata before execution, and rejects a
//! realization that leaves any of them unbound.
//!
//! Execution of a compiled program lives in [`crate::machine`].

use std::collections::HashMap;

use halide_ir::{BinOp, CmpOp, ForKind, ScalarType, Stmt};
use halide_lower::Module;
use halide_runtime::{binary_op, Value};

use crate::error::{ExecError, Result};
use crate::opt::{optimize, OptLevel, OptReport, PirStage};

/// A unary math intrinsic, resolved to its function pointer.
pub(crate) type UnaryFn = fn(f64) -> f64;
/// A binary math intrinsic, resolved to its function pointer.
pub(crate) type BinaryFn = fn(f64, f64) -> f64;

/// An intrinsic call with its resolution decided at compile time.
#[derive(Debug, Clone, Copy)]
pub(crate) enum CIntrinsic {
    /// `f(x)` over lanes converted to `f64` (result is float).
    Unary(UnaryFn),
    /// `f(a, b)` over lanes converted to `f64` (result is float).
    Binary(BinaryFn),
    /// Kind-preserving absolute value.
    Abs,
    /// `min`/`max` as intrinsics: same semantics as the binary operator.
    MinMax(BinOp),
}

/// Every intrinsic both engines know: name, resolution, arity.
pub(crate) const INTRINSICS: [(&str, CIntrinsic, usize); 14] = [
    ("abs", CIntrinsic::Abs, 1),
    ("sqrt", CIntrinsic::Unary(f64::sqrt), 1),
    ("exp", CIntrinsic::Unary(f64::exp), 1),
    ("log", CIntrinsic::Unary(f64::ln), 1),
    ("sin", CIntrinsic::Unary(f64::sin), 1),
    ("cos", CIntrinsic::Unary(f64::cos), 1),
    ("floor", CIntrinsic::Unary(f64::floor), 1),
    ("ceil", CIntrinsic::Unary(f64::ceil), 1),
    ("round", CIntrinsic::Unary(f64::round), 1),
    ("tanh", CIntrinsic::Unary(f64::tanh), 1),
    ("pow", CIntrinsic::Binary(f64::powf), 2),
    ("atan2", CIntrinsic::Binary(f64::atan2), 2),
    ("min", CIntrinsic::MinMax(BinOp::Min), 2),
    ("max", CIntrinsic::MinMax(BinOp::Max), 2),
];

impl CIntrinsic {
    /// Resolves a call of `name` with `nargs` arguments through
    /// [`INTRINSICS`]; an unknown name or too few arguments is an error.
    pub(crate) fn resolve(name: &str, nargs: usize) -> Result<CIntrinsic> {
        let Some(&(_, f, arity)) = INTRINSICS.iter().find(|(n, ..)| *n == name) else {
            return Err(ExecError::new(format!("unknown intrinsic {name:?}")));
        };
        if nargs < arity {
            return Err(ExecError::new(format!(
                "intrinsic {name:?} takes {arity} arguments, got {nargs}"
            )));
        }
        Ok(f)
    }

    /// Applies the intrinsic to evaluated arguments: float-valued math over
    /// every lane of the first argument (a scalar second argument is
    /// broadcast), kind-preserving `abs`, and `min`/`max` exactly as the
    /// binary operator.
    pub(crate) fn apply(self, args: &[Value]) -> Value {
        match self {
            CIntrinsic::Unary(f) => {
                Value::Float(args[0].to_f64_lanes().into_iter().map(f).collect())
            }
            CIntrinsic::Binary(f) => {
                let a = args[0].to_f64_lanes();
                let b = args[1].broadcast(args[0].lanes()).to_f64_lanes();
                Value::Float(a.iter().zip(&b).map(|(x, y)| f(*x, *y)).collect())
            }
            CIntrinsic::Abs => match &args[0] {
                Value::Int(v) => Value::Int(v.iter().map(|x| x.abs()).collect()),
                Value::Float(v) => Value::Float(v.iter().map(|x| x.abs()).collect()),
            },
            CIntrinsic::MinMax(op) => binary_op(op, &args[0], &args[1]),
        }
    }
}

/// A compiled expression node. Slots and buffer indices are resolved;
/// evaluation is allocation-free on scalar paths.
#[derive(Debug)]
pub(crate) enum CExpr {
    /// Integer immediate.
    ConstI(i64),
    /// Float immediate.
    ConstF(f64),
    /// Read a register.
    Slot(u32),
    /// Numeric conversion.
    Cast { ty: ScalarType, value: Box<CExpr> },
    /// Binary arithmetic.
    Bin {
        op: BinOp,
        a: Box<CExpr>,
        b: Box<CExpr>,
    },
    /// Comparison producing 0/1.
    Cmp {
        op: CmpOp,
        a: Box<CExpr>,
        b: Box<CExpr>,
    },
    /// Short-circuiting logical and (on scalar conditions).
    And { a: Box<CExpr>, b: Box<CExpr> },
    /// Short-circuiting logical or (on scalar conditions).
    Or { a: Box<CExpr>, b: Box<CExpr> },
    /// Logical negation.
    Not { a: Box<CExpr> },
    /// Select; evaluates only the taken branch for scalar conditions.
    Select {
        cond: Box<CExpr>,
        t: Box<CExpr>,
        f: Box<CExpr>,
    },
    /// Affine vector constructor (vector path).
    Ramp {
        base: Box<CExpr>,
        stride: Box<CExpr>,
        lanes: u16,
    },
    /// Splat a scalar to lanes (vector path).
    Broadcast { value: Box<CExpr>, lanes: u16 },
    /// Scoped binding: write the slot, evaluate the body.
    Let {
        slot: u32,
        value: Box<CExpr>,
        body: Box<CExpr>,
    },
    /// Strength-reduced integer `value << bits` (from `mul` by a power of
    /// two; exact on the wrapping i64 lane ring).
    Shl { a: Box<CExpr>, bits: u32 },
    /// Strength-reduced integer arithmetic shift `value >> bits` (from
    /// floor division by a power of two; exact for all i64).
    Shr { a: Box<CExpr>, bits: u32 },
    /// Strength-reduced integer `value & mask` (from floor modulo by a
    /// power of two; exact for all i64 with a positive modulus).
    AndMask { a: Box<CExpr>, mask: i64 },
    /// Counter compensation wrapper: bumps the arithmetic counter by
    /// `arith` (two's complement; may be negative) when instrumented, then
    /// evaluates `inner`. Keeps optimized programs' dynamic counts
    /// bit-identical to the interpreter inside lazily-evaluated arms.
    Count { arith: i64, inner: Box<CExpr> },
    /// Load from a buffer at a flat index.
    Load { buf: u32, index: Box<CExpr> },
    /// Load through `max(min(index, hi), lo)` — the clamped-index access
    /// `at_clamped` lowers to (and the camera pipe's LUT stage performs with
    /// a data-dependent index). Each lane is clamped as it is read: the
    /// `min`/`max` intermediate vectors never materialize, though they still
    /// count as the two arithmetic operations the interpreter executes.
    LoadClamped {
        buf: u32,
        index: Box<CExpr>,
        lo: Box<CExpr>,
        hi: Box<CExpr>,
    },
    /// Predicated (masked) load: lanes whose mask lane is false are not
    /// read (and not bounds-checked) and yield zero.
    LoadMasked {
        buf: u32,
        index: Box<CExpr>,
        mask: Box<CExpr>,
    },
    /// Intrinsic call through a resolved function pointer.
    Intrinsic { f: CIntrinsic, args: Vec<CExpr> },
}

/// A compiled statement node.
#[derive(Debug)]
pub(crate) enum CStmt {
    /// Evaluate `value` and write it to a register (the statement form of a
    /// binding — emission splits the old scoped `let` into a plain register
    /// write, since slots are unique per binder anyway).
    SetSlot { slot: u32, value: CExpr },
    /// Runtime check.
    Assert { cond: CExpr, message: String },
    /// A loop. `hoisted` is the loop-invariant code region: statements run
    /// once per loop entry (peeled loop-leading lets plus whatever LICM
    /// moved there), visible to every iteration.
    For {
        slot: u32,
        min: CExpr,
        extent: CExpr,
        kind: ForKind,
        hoisted: Vec<CStmt>,
        body: Box<CStmt>,
    },
    /// Store to a buffer at a flat index.
    Store {
        buf: u32,
        value: CExpr,
        index: CExpr,
    },
    /// Predicated (masked) store: lanes whose mask lane is false are
    /// skipped entirely — not written, not bounds-checked.
    StoreMasked {
        buf: u32,
        value: CExpr,
        index: CExpr,
        mask: CExpr,
    },
    /// Scoped allocation bound to a buffer index.
    Allocate {
        buf: u32,
        ty: ScalarType,
        size: CExpr,
        body: Box<CStmt>,
    },
    /// Sequential composition.
    Block(Vec<CStmt>),
    /// Conditional.
    If {
        cond: CExpr,
        then_case: Box<CStmt>,
        else_case: Option<Box<CStmt>>,
    },
    /// Evaluate for effect.
    Evaluate(CExpr),
    /// Counter compensation: bump the arithmetic counter by `arith` (two's
    /// complement; may be negative) when instrumented.
    Count { arith: i64 },
    /// A produce nest for func `func` (an index into
    /// [`Program::func_names`]): when a profiler is attached to the
    /// execution context, entry publishes the func as the sampler's
    /// current-func token (and counts one invocation) and exit restores
    /// the previous token. Without a profiler this is a plain `body`.
    Produce { func: u32, body: Box<CStmt> },
    /// Does nothing.
    NoOp,
}

/// A compiled pipeline body: the register-machine program the
/// [`crate::Realizer`] executes under [`crate::Backend::Compiled`].
///
/// Obtain one with [`Program::compile`]; run it by realizing the module it
/// was compiled from. The program records the *free* slots and buffers —
/// names the statement references but does not bind — which the realizer
/// must bind before execution.
#[derive(Debug)]
pub struct Program {
    pub(crate) body: CStmt,
    /// Register file size; every binder and free symbol has a unique slot.
    pub(crate) n_slots: usize,
    /// Buffer table size.
    pub(crate) n_bufs: usize,
    /// Buffer index → buffer name (diagnostics and profiler attribution).
    pub(crate) buf_names: Vec<String>,
    /// Free scalar symbols: name → slot. All must be bound before running.
    pub(crate) free_slots: HashMap<String, u32>,
    /// Free buffers: name → index. All must be bound before running.
    pub(crate) free_bufs: HashMap<String, u32>,
    /// Func index → func name for [`CStmt::Produce`] markers (the
    /// per-Func profiler's id space).
    pub(crate) func_names: Vec<String>,
    /// What the optimizer did (pass statistics; see [`OptReport`]).
    pub(crate) opt_report: OptReport,
}

impl Program {
    /// Compiles a lowered module into a register-machine program at
    /// [`OptLevel::Default`].
    ///
    /// # Errors
    ///
    /// Fails on statements that did not finish lowering (`Provide`/`Realize`
    /// nodes, calls to non-intrinsic functions) and on unknown or mis-used
    /// intrinsics.
    pub fn compile(module: &Module) -> Result<Program> {
        Program::compile_stmt(&module.stmt)
    }

    /// Compiles a lowered module at an explicit [`OptLevel`].
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Program::compile`].
    pub fn compile_with(module: &Module, level: OptLevel) -> Result<Program> {
        Program::compile_stmt_with(&module.stmt, level)
    }

    /// Compiles a lowered module, recording a printable PIR snapshot after
    /// linearization and after every pass that changed the program (the
    /// `--dump-pir` / `pir_stages` debugging surface).
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Program::compile`].
    pub fn compile_traced(module: &Module, level: OptLevel) -> Result<(Program, Vec<PirStage>)> {
        let mut pir = crate::pir::linearize(&module.stmt)?;
        let mut stages = vec![PirStage {
            name: "linearized".to_string(),
            changes: 0,
            pir: pir.print(),
        }];
        let report = optimize(&mut pir, level, Some(&mut stages));
        let program = Program::assemble(pir, report)?;
        Ok((program, stages))
    }

    /// Compiles a bare statement (the module-independent core, also used by
    /// unit tests) at [`OptLevel::Default`].
    pub(crate) fn compile_stmt(stmt: &Stmt) -> Result<Program> {
        Program::compile_stmt_with(stmt, OptLevel::Default)
    }

    /// Compiles a bare statement at an explicit [`OptLevel`]: linearize to
    /// PIR, run the optimizer, emit machine statements. Each phase records
    /// a `compile`-category span into the global trace sink when tracing
    /// is enabled.
    pub(crate) fn compile_stmt_with(stmt: &Stmt, level: OptLevel) -> Result<Program> {
        let pir = {
            let _span = halide_trace::span("compile/linearize", "compile");
            crate::pir::linearize(stmt)?
        };
        let mut pir = pir;
        let report = {
            let _span = halide_trace::span("compile/optimize", "compile");
            optimize(&mut pir, level, None)
        };
        Program::assemble(pir, report)
    }

    /// Emits an optimized PIR program and packages it with its interface
    /// tables.
    fn assemble(pir: crate::pir::PirProgram, opt_report: OptReport) -> Result<Program> {
        let body = {
            let _span = halide_trace::span("compile/emit", "compile");
            crate::emit::emit(&pir)?
        };
        Ok(Program {
            body,
            n_slots: pir.n_regs as usize,
            n_bufs: pir.buf_names.len(),
            buf_names: pir.buf_names,
            free_slots: pir.free_slots,
            free_bufs: pir.free_bufs,
            func_names: pir.func_names,
            opt_report,
        })
    }

    /// The slot of a free symbol, if the program references it.
    pub(crate) fn free_slot(&self, name: &str) -> Option<u32> {
        self.free_slots.get(name).copied()
    }

    /// The buffer index of a free buffer, if the program references it.
    pub(crate) fn free_buf(&self, name: &str) -> Option<u32> {
        self.free_bufs.get(name).copied()
    }

    /// What the optimizer did to this program: instruction counts before
    /// and after, and per-pass change counters.
    pub fn opt_report(&self) -> &OptReport {
        &self.opt_report
    }

    /// Func names referenced by the program's produce markers — the name
    /// space the per-Func profiler attributes time to.
    pub fn func_names(&self) -> &[String] {
        &self.func_names
    }
}
