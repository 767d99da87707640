//! PIR — the linear program IR between lowering and code emission.
//!
//! The compile pipeline is split into three explicit layers:
//!
//! 1. **linearize** (this module): flatten a lowered [`halide_ir::Stmt`]
//!    into basic-block-structured instruction lists over virtual registers.
//!    Control constructs (loops, allocations, conditionals) own nested
//!    blocks; lazily-evaluated sub-expressions (select arms, the right-hand
//!    sides of short-circuiting `and`/`or`) are nested blocks yielding a
//!    result register, so "evaluate only the taken arm" survives the
//!    flattening. Buffer operations carry explicit side-effect annotations
//!    (they are never treated as pure by the optimizer).
//! 2. **optimize** ([`crate::opt`]): a fixed-point pass pipeline over PIR.
//! 3. **emit** ([`crate::emit`]): translate PIR to the [`crate::machine`]
//!    instruction set.
//!
//! The IR is printable ([`PirProgram::print`]) for golden tests and the
//! `--dump-pir` tooling.
//!
//! # Counter compensation
//!
//! The compiled engine is contractually bit-identical to the tree-walking
//! interpreter **including the instrumentation counters**. Passes that
//! remove or move a counted operation must keep the dynamic counts exact:
//! a [`POp::Count`] pseudo-instruction bumps the arithmetic counter by a
//! (possibly negative) amount at its execution site, and the `weight` field
//! of a counted instruction records how many arithmetic ops its execution
//! should report (hoisted instructions keep computing but stop counting at
//! weight 0; the `Count` left at the original site restores the per-
//! iteration total).

use std::collections::HashMap;
use std::fmt::Write as _;

use halide_ir::{BinOp, CallType, CmpOp, Expr, ExprNode, ForKind, ScalarType, Stmt, StmtNode};

use crate::compile::CIntrinsic;
use crate::error::{ExecError, Result};
use crate::eval::peel_invariant_lets;

/// A virtual register. Registers are in static single assignment form
/// (loop variables are assigned by their loop, once per iteration) and map
/// one-to-one onto machine frame slots at emission.
pub(crate) type Reg = u32;

/// Index of a basic block in [`PirProgram::blocks`]. Block 0 is the entry.
pub(crate) type BlockId = u32;

/// What a register may hold at run time, as far as the optimizer can prove.
/// Algebraic rules and strength reduction only fire on proven integers —
/// float identities like `x + 0.0` are not bit-exact (`-0.0 + 0.0 == 0.0`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PKind {
    /// Guaranteed an integer (or integer lanes) at run time.
    Int,
    /// Guaranteed floating point at run time.
    Float,
    /// No runtime guarantee (loads, free symbols).
    Unknown,
}

/// One PIR operation. Value operations write their instruction's `dst`
/// register; effect operations (stores, asserts, control flow) have none.
#[derive(Debug)]
pub(crate) enum POp {
    /// Integer immediate.
    ConstI(i64),
    /// Float immediate.
    ConstF(f64),
    /// Register alias (introduced by CSE and folding; removed by copy
    /// propagation + DCE).
    Copy(Reg),
    /// Numeric conversion.
    Cast { ty: ScalarType, a: Reg },
    /// Binary arithmetic (counted).
    Bin { op: BinOp, a: Reg, b: Reg },
    /// Comparison producing 0/1 (counted).
    Cmp { op: CmpOp, a: Reg, b: Reg },
    /// Logical negation.
    Not { a: Reg },
    /// Strength-reduced `a * 2^bits` (counted; exact on wrapping i64).
    Shl { a: Reg, bits: u32 },
    /// Strength-reduced floor division `a / 2^bits` as an arithmetic shift
    /// (counted; exact for all i64 under Euclidean/floor division).
    Shr { a: Reg, bits: u32 },
    /// Strength-reduced `a mod 2^k` as `a & (2^k - 1)` (counted; exact for
    /// all i64 under floor modulo with a positive modulus).
    AndMask { a: Reg, mask: i64 },
    /// Affine vector constructor.
    Ramp { base: Reg, stride: Reg, lanes: u16 },
    /// Splat a scalar to lanes.
    Broadcast { a: Reg, lanes: u16 },
    /// Short-circuiting logical and: `rhs` is evaluated lazily (only when
    /// `a` is not a scalar false), yielding `rhs_val`.
    And { a: Reg, rhs: BlockId, rhs_val: Reg },
    /// Short-circuiting logical or; `rhs` evaluated only when `a` is not a
    /// scalar true.
    Or { a: Reg, rhs: BlockId, rhs_val: Reg },
    /// Select. Arm blocks are evaluated lazily for scalar conditions (only
    /// the taken arm) and both evaluated for vector conditions.
    Select {
        cond: Reg,
        t: BlockId,
        t_val: Reg,
        f: BlockId,
        f_val: Reg,
    },
    /// Load from a buffer at a flat (possibly vector) index. Side effect
    /// annotation: reads memory, counted as a load.
    Load { buf: u32, index: Reg },
    /// Dense vector load of `lanes` contiguous elements.
    LoadDense { buf: u32, base: Reg, lanes: u16 },
    /// Clamping gather `buf[max(min(index, hi), lo)]` (counts two arith ops
    /// plus the load, like the interpreter's explicit min/max).
    LoadClamped {
        buf: u32,
        index: Reg,
        lo: Reg,
        hi: Reg,
    },
    /// Predicated (masked) load: lanes whose `mask` lane is false are not
    /// read (and not bounds-checked) and yield zero. The machine dispatches
    /// dense/strided/gather forms from the runtime index shape, like
    /// [`POp::Load`].
    LoadMasked { buf: u32, index: Reg, mask: Reg },
    /// Intrinsic call (counted). `name` is kept for printing and CSE keys.
    Intrinsic {
        f: CIntrinsic,
        name: String,
        args: Vec<Reg>,
    },
    /// Store to a buffer at a flat index (side effect: writes memory).
    Store { buf: u32, value: Reg, index: Reg },
    /// Dense vector store of `lanes` contiguous elements.
    StoreDense {
        buf: u32,
        value: Reg,
        base: Reg,
        lanes: u16,
    },
    /// Predicated (masked) store: lanes whose `mask` lane is false are
    /// skipped entirely — not written, not bounds-checked.
    StoreMasked {
        buf: u32,
        value: Reg,
        index: Reg,
        mask: Reg,
    },
    /// Runtime check; failure aborts execution with `message`.
    Assert { cond: Reg, message: String },
    /// A loop region. `header` runs once per loop entry (the loop-invariant
    /// code region: peeled lets land here at linearization, LICM moves more
    /// in); `body` runs once per iteration with `var` bound.
    For {
        var: Reg,
        min: Reg,
        extent: Reg,
        kind: ForKind,
        header: BlockId,
        body: BlockId,
    },
    /// A scoped allocation region.
    Alloc {
        buf: u32,
        ty: ScalarType,
        size: Reg,
        body: BlockId,
    },
    /// Conditional statement.
    If {
        cond: Reg,
        then_b: BlockId,
        else_b: Option<BlockId>,
    },
    /// Evaluate a register for effect (the value is discarded).
    Evaluate { a: Reg },
    /// Counter compensation: bump the arithmetic counter by `arith` (two's
    /// complement; may be negative) when instrumented. See the module docs.
    Count { arith: i64 },
    /// Profiler marker: a produce nest for func `func` (an index into
    /// [`PirProgram::func_names`]) begins here. Paired with a
    /// [`POp::ProduceExit`] in the same block (the linearizer emits both
    /// around the nest's statements, so pairs are well-nested within one
    /// block by construction). Not counted, not pure, no destination:
    /// every optimizer pass passes it through untouched, and
    /// [`PirProgram::exec_inst_count`] excludes it like [`POp::Count`].
    ProduceEnter { func: u32 },
    /// Profiler marker closing the innermost open [`POp::ProduceEnter`].
    ProduceExit,
}

/// One PIR instruction: an optional destination register, the operation,
/// and — for counted operations — how many arithmetic ops one execution
/// reports (1 normally, 0 after hoisting).
#[derive(Debug)]
pub(crate) struct PInst {
    pub(crate) dst: Option<Reg>,
    pub(crate) op: POp,
    pub(crate) weight: u32,
}

/// A linearized program: a block arena (block 0 is the entry), the register
/// count, and the same free-symbol/buffer interface as [`crate::Program`].
#[derive(Debug, Default)]
pub(crate) struct PirProgram {
    pub(crate) blocks: Vec<Vec<PInst>>,
    pub(crate) n_regs: u32,
    /// Per-register: may the value be multi-lane at run time? (Static types
    /// are stale after vectorization, so vector-ness is tracked through
    /// bindings, mirroring the old compiler's `vec_slots`.)
    pub(crate) vec: Vec<bool>,
    /// Per-register runtime kind guarantee.
    pub(crate) kind: Vec<PKind>,
    pub(crate) buf_names: Vec<String>,
    /// Func names referenced by [`POp::ProduceEnter`] markers, in
    /// first-appearance order.
    pub(crate) func_names: Vec<String>,
    pub(crate) free_slots: HashMap<String, Reg>,
    pub(crate) free_bufs: HashMap<String, u32>,
}

impl POp {
    /// Nested blocks this operation owns, in evaluation order.
    pub(crate) fn sub_blocks(&self) -> Vec<BlockId> {
        match self {
            POp::And { rhs, .. } | POp::Or { rhs, .. } => vec![*rhs],
            POp::Select { t, f, .. } => vec![*t, *f],
            POp::For { header, body, .. } => vec![*header, *body],
            POp::Alloc { body, .. } => vec![*body],
            POp::If { then_b, else_b, .. } => {
                let mut v = vec![*then_b];
                if let Some(e) = else_b {
                    v.push(*e);
                }
                v
            }
            _ => Vec::new(),
        }
    }

    /// Calls `f` for every register this operation reads. Result registers
    /// of nested blocks (`rhs_val`, `t_val`, `f_val`) count as reads.
    pub(crate) fn for_each_operand(&self, mut f: impl FnMut(Reg)) {
        self.for_each_operand_impl(&mut f);
    }

    fn for_each_operand_impl(&self, f: &mut dyn FnMut(Reg)) {
        match self {
            POp::ConstI(_)
            | POp::ConstF(_)
            | POp::Count { .. }
            | POp::ProduceEnter { .. }
            | POp::ProduceExit => {}
            POp::Copy(a)
            | POp::Cast { a, .. }
            | POp::Not { a }
            | POp::Shl { a, .. }
            | POp::Shr { a, .. }
            | POp::AndMask { a, .. }
            | POp::Broadcast { a, .. }
            | POp::Evaluate { a }
            | POp::Load { index: a, .. }
            | POp::LoadDense { base: a, .. }
            | POp::Assert { cond: a, .. }
            | POp::If { cond: a, .. } => f(*a),
            POp::Bin { a, b, .. }
            | POp::Cmp { a, b, .. }
            | POp::Ramp {
                base: a, stride: b, ..
            }
            | POp::Store {
                value: a, index: b, ..
            }
            | POp::StoreDense {
                value: a, base: b, ..
            } => {
                f(*a);
                f(*b);
            }
            POp::And { a, rhs_val, .. } | POp::Or { a, rhs_val, .. } => {
                f(*a);
                f(*rhs_val);
            }
            POp::Select {
                cond, t_val, f_val, ..
            } => {
                f(*cond);
                f(*t_val);
                f(*f_val);
            }
            POp::LoadClamped { index, lo, hi, .. } => {
                f(*index);
                f(*lo);
                f(*hi);
            }
            POp::LoadMasked { index, mask, .. } => {
                f(*index);
                f(*mask);
            }
            POp::StoreMasked {
                value, index, mask, ..
            } => {
                f(*value);
                f(*index);
                f(*mask);
            }
            POp::Intrinsic { args, .. } => {
                for a in args {
                    f(*a);
                }
            }
            POp::For { min, extent, .. } => {
                f(*min);
                f(*extent);
            }
            POp::Alloc { size, .. } => f(*size),
        }
    }

    /// Calls `f` with a mutable reference to every register this operation
    /// reads (used by copy propagation).
    pub(crate) fn for_each_operand_mut(&mut self, mut f: impl FnMut(&mut Reg)) {
        let g: &mut dyn FnMut(&mut Reg) = &mut f;
        match self {
            POp::ConstI(_)
            | POp::ConstF(_)
            | POp::Count { .. }
            | POp::ProduceEnter { .. }
            | POp::ProduceExit => {}
            POp::Copy(a)
            | POp::Cast { a, .. }
            | POp::Not { a }
            | POp::Shl { a, .. }
            | POp::Shr { a, .. }
            | POp::AndMask { a, .. }
            | POp::Broadcast { a, .. }
            | POp::Evaluate { a }
            | POp::Load { index: a, .. }
            | POp::LoadDense { base: a, .. }
            | POp::Assert { cond: a, .. }
            | POp::If { cond: a, .. } => g(a),
            POp::Bin { a, b, .. }
            | POp::Cmp { a, b, .. }
            | POp::Ramp {
                base: a, stride: b, ..
            }
            | POp::Store {
                value: a, index: b, ..
            }
            | POp::StoreDense {
                value: a, base: b, ..
            } => {
                g(a);
                g(b);
            }
            POp::And { a, rhs_val, .. } | POp::Or { a, rhs_val, .. } => {
                g(a);
                g(rhs_val);
            }
            POp::Select {
                cond, t_val, f_val, ..
            } => {
                g(cond);
                g(t_val);
                g(f_val);
            }
            POp::LoadClamped { index, lo, hi, .. } => {
                g(index);
                g(lo);
                g(hi);
            }
            POp::LoadMasked { index, mask, .. } => {
                g(index);
                g(mask);
            }
            POp::StoreMasked {
                value, index, mask, ..
            } => {
                g(value);
                g(index);
                g(mask);
            }
            POp::Intrinsic { args, .. } => {
                for a in args {
                    g(a);
                }
            }
            POp::For { min, extent, .. } => {
                g(min);
                g(extent);
            }
            POp::Alloc { size, .. } => g(size),
        }
    }

    /// True for operations whose execution reports one arithmetic op when
    /// instrumented (the counted kinds; their count is scaled by `weight`).
    pub(crate) fn counted(&self) -> bool {
        matches!(
            self,
            POp::Bin { .. }
                | POp::Cmp { .. }
                | POp::Shl { .. }
                | POp::Shr { .. }
                | POp::AndMask { .. }
                | POp::Intrinsic { .. }
        )
    }

    /// True for pure, flat (no nested block) value operations — the set
    /// DCE may delete and LICM may hoist. Loads are excluded: they touch
    /// memory and report load counters.
    pub(crate) fn pure_value(&self) -> bool {
        matches!(
            self,
            POp::ConstI(_)
                | POp::ConstF(_)
                | POp::Copy(_)
                | POp::Cast { .. }
                | POp::Bin { .. }
                | POp::Cmp { .. }
                | POp::Not { .. }
                | POp::Shl { .. }
                | POp::Shr { .. }
                | POp::AndMask { .. }
                | POp::Ramp { .. }
                | POp::Broadcast { .. }
                | POp::Intrinsic { .. }
        )
    }
}

impl PirProgram {
    /// Reachable blocks from the entry, in pre-order (textual order).
    pub(crate) fn reachable(&self) -> Vec<BlockId> {
        let mut out = Vec::with_capacity(self.blocks.len());
        fn walk(p: &PirProgram, b: BlockId, out: &mut Vec<BlockId>) {
            out.push(b);
            for inst in &p.blocks[b as usize] {
                for sb in inst.op.sub_blocks() {
                    walk(p, sb, out);
                }
            }
        }
        if !self.blocks.is_empty() {
            walk(self, 0, &mut out);
        }
        out
    }

    /// Number of executable instructions (everything except counter
    /// compensation and profiler markers) across reachable blocks — the
    /// optimizer's before/after size metric.
    pub(crate) fn exec_inst_count(&self) -> usize {
        self.reachable()
            .iter()
            .flat_map(|b| &self.blocks[*b as usize])
            .filter(|i| {
                !matches!(
                    i.op,
                    POp::Count { .. } | POp::ProduceEnter { .. } | POp::ProduceExit
                )
            })
            .count()
    }

    /// How many times each register is read (across reachable blocks).
    pub(crate) fn use_counts(&self) -> Vec<u32> {
        let mut counts = vec![0u32; self.n_regs as usize];
        for b in self.reachable() {
            for inst in &self.blocks[b as usize] {
                inst.op.for_each_operand(|r| counts[r as usize] += 1);
            }
        }
        counts
    }

    /// True when reading `r` is cheap enough to duplicate across uses: the
    /// register is scalar-valued, or an affine ramp over scalar integers
    /// (which the machine keeps in its compact `base/stride` form). Heap-
    /// backed vector registers are excluded — every extra read clones the
    /// lane vector, so CSE/LICM would trade recomputation for copies.
    pub(crate) fn cheap_reg(&self, r: Reg, op: &POp) -> bool {
        if !self.vec[r as usize] {
            return true;
        }
        if let POp::Ramp { base, stride, .. } = op {
            return !self.vec[*base as usize]
                && !self.vec[*stride as usize]
                && self.kind[*base as usize] == PKind::Int
                && self.kind[*stride as usize] == PKind::Int;
        }
        false
    }

    /// Renders the program in its stable textual form (golden tests,
    /// `--dump-pir`).
    pub(crate) fn print(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "pir {{");
        let mut frees: Vec<(&String, &Reg)> = self.free_slots.iter().collect();
        frees.sort_by_key(|(_, slot)| **slot);
        for (name, slot) in frees {
            let _ = writeln!(s, "  free r{slot} = {name:?}");
        }
        for (i, name) in self.buf_names.iter().enumerate() {
            let free = if self.free_bufs.contains_key(name) {
                " (free)"
            } else {
                ""
            };
            let _ = writeln!(s, "  buf b{i} = {name:?}{free}");
        }
        for b in self.reachable() {
            let _ = writeln!(s, "  L{b}:");
            for inst in &self.blocks[b as usize] {
                let _ = writeln!(s, "    {}", print_inst(inst));
            }
        }
        let _ = writeln!(s, "}}");
        s
    }
}

fn bin_name(op: BinOp) -> &'static str {
    match op {
        BinOp::Add => "add",
        BinOp::Sub => "sub",
        BinOp::Mul => "mul",
        BinOp::Div => "div",
        BinOp::Mod => "mod",
        BinOp::Min => "min",
        BinOp::Max => "max",
    }
}

fn cmp_name(op: CmpOp) -> &'static str {
    match op {
        CmpOp::Eq => "eq",
        CmpOp::Ne => "ne",
        CmpOp::Lt => "lt",
        CmpOp::Le => "le",
        CmpOp::Gt => "gt",
        CmpOp::Ge => "ge",
    }
}

fn print_inst(inst: &PInst) -> String {
    let mut s = String::new();
    if let Some(d) = inst.dst {
        let _ = write!(s, "r{d} = ");
    }
    let _ = match &inst.op {
        POp::ConstI(v) => write!(s, "const {v}"),
        POp::ConstF(v) => write!(s, "const {v:?}"),
        POp::Copy(a) => write!(s, "copy r{a}"),
        POp::Cast { ty, a } => write!(s, "cast.{ty} r{a}"),
        POp::Bin { op, a, b } => write!(s, "{} r{a}, r{b}", bin_name(*op)),
        POp::Cmp { op, a, b } => write!(s, "cmp.{} r{a}, r{b}", cmp_name(*op)),
        POp::Not { a } => write!(s, "not r{a}"),
        POp::Shl { a, bits } => write!(s, "shl r{a}, {bits}"),
        POp::Shr { a, bits } => write!(s, "shr r{a}, {bits}"),
        POp::AndMask { a, mask } => write!(s, "and_mask r{a}, {mask}"),
        POp::Ramp {
            base,
            stride,
            lanes,
        } => write!(s, "ramp r{base}, r{stride}, x{lanes}"),
        POp::Broadcast { a, lanes } => write!(s, "broadcast r{a}, x{lanes}"),
        POp::And { a, rhs, rhs_val } => write!(s, "and r{a}, [L{rhs} -> r{rhs_val}]"),
        POp::Or { a, rhs, rhs_val } => write!(s, "or r{a}, [L{rhs} -> r{rhs_val}]"),
        POp::Select {
            cond,
            t,
            t_val,
            f,
            f_val,
        } => write!(
            s,
            "select r{cond} ? [L{t} -> r{t_val}] : [L{f} -> r{f_val}]"
        ),
        POp::Load { buf, index } => write!(s, "load b{buf}[r{index}]"),
        POp::LoadDense { buf, base, lanes } => write!(s, "load.dense b{buf}[r{base}, x{lanes}]"),
        POp::LoadClamped { buf, index, lo, hi } => {
            write!(s, "load.clamped b{buf}[r{index} clamp r{lo}, r{hi}]")
        }
        POp::LoadMasked { buf, index, mask } => {
            write!(s, "load.masked b{buf}[r{index} if r{mask}]")
        }
        POp::Intrinsic { name, args, .. } => {
            let args: Vec<String> = args.iter().map(|a| format!("r{a}")).collect();
            write!(s, "call {name}({})", args.join(", "))
        }
        POp::Store { buf, value, index } => write!(s, "store b{buf}[r{index}] = r{value}"),
        POp::StoreDense {
            buf,
            value,
            base,
            lanes,
        } => write!(s, "store.dense b{buf}[r{base}, x{lanes}] = r{value}"),
        POp::StoreMasked {
            buf,
            value,
            index,
            mask,
        } => write!(s, "store.masked b{buf}[r{index} if r{mask}] = r{value}"),
        POp::Assert { cond, message } => write!(s, "assert r{cond}, {message:?}"),
        POp::For {
            var,
            min,
            extent,
            kind,
            header,
            body,
        } => write!(
            s,
            "for r{var} in [r{min}, r{min}+r{extent}) {kind:?} header L{header} body L{body}"
        ),
        POp::Alloc {
            buf,
            ty,
            size,
            body,
        } => {
            write!(s, "alloc b{buf}: {ty}[r{size}] body L{body}")
        }
        POp::If {
            cond,
            then_b,
            else_b,
        } => match else_b {
            Some(e) => write!(s, "if r{cond} then L{then_b} else L{e}"),
            None => write!(s, "if r{cond} then L{then_b}"),
        },
        POp::Evaluate { a } => write!(s, "eval r{a}"),
        POp::Count { arith } => write!(s, "count {arith}"),
        POp::ProduceEnter { func } => write!(s, "produce f{func}"),
        POp::ProduceExit => write!(s, "end_produce"),
    };
    if inst.op.counted() && inst.weight != 1 {
        let _ = write!(s, " !w{}", inst.weight);
    }
    s
}

// ---------------------------------------------------------------------------
// Pattern helpers shared with the old single-pass compiler's decisions.
// ---------------------------------------------------------------------------

/// If `e` is a broadcast whose lane count matches `other`'s static (vector)
/// lane count, returns the unbroadcast scalar value; otherwise `e` itself.
/// Used to avoid materializing splat vectors as binary-op operands.
fn fold_broadcast_against<'a>(e: &'a Expr, other: &Expr) -> &'a Expr {
    if let ExprNode::Broadcast { value, lanes } = e.node() {
        let other_lanes = other.ty().lanes();
        if other_lanes == *lanes && !matches!(other.node(), ExprNode::Broadcast { .. }) {
            return value;
        }
    }
    e
}

/// Strips a `broadcast` wrapper (vectorization splats scalar clamp bounds).
fn unbroadcast(e: &Expr) -> &Expr {
    if let ExprNode::Broadcast { value, .. } = e.node() {
        value
    } else {
        e
    }
}

/// True for expressions that are statically integer-valued and scalar-typed
/// (the requirement on clamp bounds for the fused clamped-gather form).
fn is_scalar_int(e: &Expr) -> bool {
    let ty = e.ty();
    !ty.is_float() && ty.lanes() == 1
}

/// Matches the clamped-index load pattern `max(min(index, hi), lo)` (what
/// [`halide_ir::Expr::clamp`] builds and `at_clamped` lowers to), returning
/// `(index, lo, hi)`. Only integer clamps with statically scalar bounds
/// qualify — exactly the shapes whose lane-wise `min`/`max` agree with
/// clamping each lane independently.
fn clamp_pattern(index: &Expr) -> Option<(&Expr, &Expr, &Expr)> {
    let ExprNode::Bin {
        op: BinOp::Max,
        a,
        b: lo,
    } = index.node()
    else {
        return None;
    };
    let ExprNode::Bin {
        op: BinOp::Min,
        a: inner,
        b: hi,
    } = a.node()
    else {
        return None;
    };
    let (lo, hi) = (unbroadcast(lo), unbroadcast(hi));
    if is_scalar_int(lo) && is_scalar_int(hi) && !inner.ty().is_float() {
        Some((inner, lo, hi))
    } else {
        None
    }
}

/// Matches a unit-stride integer ramp index, the dense vector access pattern
/// vectorization emits for contiguous loads/stores.
fn dense_ramp(index: &Expr) -> Option<(&Expr, u16)> {
    if let ExprNode::Ramp {
        base,
        stride,
        lanes,
    } = index.node()
    {
        if stride.is_const_int(1) && !base.ty().is_float() {
            return Some((base, *lanes));
        }
    }
    None
}

// ---------------------------------------------------------------------------
// Linearization
// ---------------------------------------------------------------------------

/// Flattens a lowered statement into PIR. Replicates every compile-time
/// decision the old single-pass compiler made (broadcast folding, dense
/// ramp fusion, clamped-gather fusion, loop-invariant let peeling into the
/// loop header, free-on-first-reference symbol interning), so emitting
/// unoptimized PIR reproduces the old programs.
pub(crate) fn linearize(stmt: &Stmt) -> Result<PirProgram> {
    let mut lz = Linearizer::default();
    lz.prog.blocks.push(Vec::new());
    lz.stmt(stmt)?;
    Ok(lz.prog)
}

#[derive(Default)]
struct Linearizer {
    prog: PirProgram,
    cur: BlockId,
    /// Name → register binding stacks (lexical shadowing).
    vars: HashMap<String, Vec<Reg>>,
    bufs: HashMap<String, Vec<u32>>,
}

impl Linearizer {
    fn new_reg(&mut self, vec: bool, kind: PKind) -> Reg {
        let r = self.prog.n_regs;
        self.prog.n_regs += 1;
        self.prog.vec.push(vec);
        self.prog.kind.push(kind);
        r
    }

    fn push(&mut self, dst: Option<Reg>, op: POp) {
        self.prog.blocks[self.cur as usize].push(PInst { dst, op, weight: 1 });
    }

    /// Emits a value instruction into the current block.
    fn value(&mut self, op: POp, vec: bool, kind: PKind) -> Reg {
        let r = self.new_reg(vec, kind);
        self.push(Some(r), op);
        r
    }

    fn new_block(&mut self) -> BlockId {
        self.prog.blocks.push(Vec::new());
        (self.prog.blocks.len() - 1) as BlockId
    }

    /// Runs `f` with the current block switched to `b`.
    fn in_block<T>(&mut self, b: BlockId, f: impl FnOnce(&mut Self) -> T) -> T {
        let saved = self.cur;
        self.cur = b;
        let r = f(self);
        self.cur = saved;
        r
    }

    /// Resolves a variable reference: innermost binder, else a free slot.
    fn var(&mut self, name: &str) -> Reg {
        if let Some(r) = self.vars.get(name).and_then(|s| s.last()) {
            return *r;
        }
        if let Some(r) = self.prog.free_slots.get(name) {
            return *r;
        }
        let r = self.new_reg(false, PKind::Unknown);
        self.prog.free_slots.insert(name.to_string(), r);
        r
    }

    fn bind_var(&mut self, name: &str, r: Reg) {
        self.vars.entry(name.to_string()).or_default().push(r);
    }

    fn unbind_var(&mut self, name: &str) {
        self.vars
            .get_mut(name)
            .and_then(Vec::pop)
            .expect("unbalanced linearize-time scope");
    }

    fn bind_buf(&mut self, name: &str) -> u32 {
        let idx = self.prog.buf_names.len() as u32;
        self.prog.buf_names.push(name.to_string());
        self.bufs.entry(name.to_string()).or_default().push(idx);
        idx
    }

    fn unbind_buf(&mut self, name: &str) {
        self.bufs
            .get_mut(name)
            .and_then(Vec::pop)
            .expect("unbalanced linearize-time buffer scope");
    }

    /// Interns a produce-marker func name.
    fn func_id(&mut self, name: &str) -> u32 {
        if let Some(i) = self.prog.func_names.iter().position(|n| n == name) {
            return i as u32;
        }
        self.prog.func_names.push(name.to_string());
        (self.prog.func_names.len() - 1) as u32
    }

    fn buf(&mut self, name: &str) -> u32 {
        if let Some(idx) = self.bufs.get(name).and_then(|s| s.last()) {
            return *idx;
        }
        if let Some(idx) = self.prog.free_bufs.get(name) {
            return *idx;
        }
        let idx = self.prog.buf_names.len() as u32;
        self.prog.buf_names.push(name.to_string());
        self.prog.free_bufs.insert(name.to_string(), idx);
        idx
    }

    fn vec_of(&self, r: Reg) -> bool {
        self.prog.vec[r as usize]
    }

    fn kind_of(&self, r: Reg) -> PKind {
        self.prog.kind[r as usize]
    }

    /// True if `e` may evaluate to a multi-lane value at run time: it
    /// contains a `Ramp`/`Broadcast`, references a vector-possible binding,
    /// or loads through a vector-possible index. This (not the stale static
    /// type) gates vector fusion.
    fn may_vec(&self, e: &Expr) -> bool {
        match e.node() {
            ExprNode::Ramp { .. } | ExprNode::Broadcast { .. } => true,
            ExprNode::Var { name, .. } => self
                .vars
                .get(name)
                .and_then(|s| s.last())
                .is_some_and(|r| self.prog.vec[*r as usize]),
            ExprNode::IntImm { .. } | ExprNode::UIntImm { .. } | ExprNode::FloatImm { .. } => false,
            ExprNode::Cast { value, .. } | ExprNode::Not { a: value } => self.may_vec(value),
            ExprNode::Bin { a, b, .. }
            | ExprNode::Cmp { a, b, .. }
            | ExprNode::And { a, b }
            | ExprNode::Or { a, b } => self.may_vec(a) || self.may_vec(b),
            ExprNode::Select { cond, t, f } => {
                self.may_vec(cond) || self.may_vec(t) || self.may_vec(f)
            }
            ExprNode::Let { value, body, .. } => self.may_vec(value) || self.may_vec(body),
            ExprNode::Load { index, .. } => self.may_vec(index),
            ExprNode::Call { args, .. } => args.iter().any(|a| self.may_vec(a)),
        }
    }

    /// Runtime-kind meet for a binary arithmetic result: integer op integer
    /// stays integer, anything touching a float promotes to float, and an
    /// unknown operand (unless the other side forces promotion) stays
    /// unknown.
    fn bin_kind(a: PKind, b: PKind) -> PKind {
        match (a, b) {
            (PKind::Int, PKind::Int) => PKind::Int,
            (PKind::Float, _) | (_, PKind::Float) => PKind::Float,
            _ => PKind::Unknown,
        }
    }

    /// Kind of a value that is one of its operands verbatim (select arms,
    /// ramp elements): only a guarantee when both sides agree.
    fn same_kind(a: PKind, b: PKind) -> PKind {
        if a == b {
            a
        } else {
            PKind::Unknown
        }
    }

    fn expr(&mut self, e: &Expr) -> Result<Reg> {
        Ok(match e.node() {
            ExprNode::IntImm { value, .. } => self.value(POp::ConstI(*value), false, PKind::Int),
            ExprNode::UIntImm { value, .. } => {
                self.value(POp::ConstI(*value as i64), false, PKind::Int)
            }
            ExprNode::FloatImm { value, .. } => {
                self.value(POp::ConstF(*value), false, PKind::Float)
            }
            ExprNode::Var { name, .. } => self.var(name),
            ExprNode::Cast { ty, value } => {
                let a = self.expr(value)?;
                let kind = if ty.scalar().is_float() {
                    PKind::Float
                } else {
                    PKind::Int
                };
                self.value(POp::Cast { ty: ty.scalar(), a }, self.vec_of(a), kind)
            }
            ExprNode::Bin { op, a, b } => {
                // A broadcast operand against a vector operand need not be
                // materialized: the runtime op broadcasts the scalar side
                // lane-wise with identical results, so compile the scalar
                // value directly and skip the per-evaluation splat vector.
                // Only safe when the other side is statically a vector (the
                // result's lane count must not change).
                let (a, b) = (fold_broadcast_against(a, b), fold_broadcast_against(b, a));
                let (ra, rb) = (self.expr(a)?, self.expr(b)?);
                self.value(
                    POp::Bin {
                        op: *op,
                        a: ra,
                        b: rb,
                    },
                    self.vec_of(ra) || self.vec_of(rb),
                    Self::bin_kind(self.kind_of(ra), self.kind_of(rb)),
                )
            }
            ExprNode::Cmp { op, a, b } => {
                // Same splat-folding as binary arithmetic.
                let (a, b) = (fold_broadcast_against(a, b), fold_broadcast_against(b, a));
                let (ra, rb) = (self.expr(a)?, self.expr(b)?);
                self.value(
                    POp::Cmp {
                        op: *op,
                        a: ra,
                        b: rb,
                    },
                    self.vec_of(ra) || self.vec_of(rb),
                    PKind::Int,
                )
            }
            ExprNode::And { a, b } => {
                let ra = self.expr(a)?;
                let rhs = self.new_block();
                let rhs_val = self.in_block(rhs, |lz| lz.expr(b))?;
                let kind = Self::same_kind(PKind::Int, self.kind_of(rhs_val));
                self.value(
                    POp::And {
                        a: ra,
                        rhs,
                        rhs_val,
                    },
                    self.vec_of(ra) || self.vec_of(rhs_val),
                    kind,
                )
            }
            ExprNode::Or { a, b } => {
                let ra = self.expr(a)?;
                let rhs = self.new_block();
                let rhs_val = self.in_block(rhs, |lz| lz.expr(b))?;
                let kind = Self::same_kind(PKind::Int, self.kind_of(rhs_val));
                self.value(
                    POp::Or {
                        a: ra,
                        rhs,
                        rhs_val,
                    },
                    self.vec_of(ra) || self.vec_of(rhs_val),
                    kind,
                )
            }
            ExprNode::Not { a } => {
                let ra = self.expr(a)?;
                self.value(POp::Not { a: ra }, self.vec_of(ra), PKind::Int)
            }
            ExprNode::Select { cond, t, f } => {
                // When the condition is statically a vector the result's
                // width is pinned by the mask, so broadcast arms need not
                // materialize. (A statically-scalar condition must keep its
                // arms' widths — the taken arm IS the result.)
                let (t, f) = if cond.ty().lanes() > 1 {
                    (
                        fold_broadcast_against(t, cond),
                        fold_broadcast_against(f, cond),
                    )
                } else {
                    (t, f)
                };
                let rc = self.expr(cond)?;
                let t_blk = self.new_block();
                let t_val = self.in_block(t_blk, |lz| lz.expr(t))?;
                let f_blk = self.new_block();
                let f_val = self.in_block(f_blk, |lz| lz.expr(f))?;
                self.value(
                    POp::Select {
                        cond: rc,
                        t: t_blk,
                        t_val,
                        f: f_blk,
                        f_val,
                    },
                    self.vec_of(rc) || self.vec_of(t_val) || self.vec_of(f_val),
                    Self::same_kind(self.kind_of(t_val), self.kind_of(f_val)),
                )
            }
            ExprNode::Ramp {
                base,
                stride,
                lanes,
            } => {
                let rb = self.expr(base)?;
                let rs = self.expr(stride)?;
                self.value(
                    POp::Ramp {
                        base: rb,
                        stride: rs,
                        lanes: *lanes,
                    },
                    true,
                    Self::same_kind(self.kind_of(rb), self.kind_of(rs)),
                )
            }
            ExprNode::Broadcast { value, lanes } => {
                let rv = self.expr(value)?;
                self.value(
                    POp::Broadcast {
                        a: rv,
                        lanes: *lanes,
                    },
                    true,
                    self.kind_of(rv),
                )
            }
            ExprNode::Let { name, value, body } => {
                let rv = self.expr(value)?;
                self.bind_var(name, rv);
                let rb = self.expr(body);
                self.unbind_var(name);
                rb?
            }
            ExprNode::Load {
                name,
                index,
                predicate,
                ..
            } => {
                let buf = self.buf(name);
                if let Some(p) = predicate {
                    // Predicated loads keep the general index: the machine
                    // dispatches the dense/strided/gather masked form from
                    // the runtime index shape, like the generic Load path.
                    let ri = self.expr(index)?;
                    let rm = self.expr(p)?;
                    return Ok(self.value(
                        POp::LoadMasked {
                            buf,
                            index: ri,
                            mask: rm,
                        },
                        self.vec_of(ri),
                        PKind::Unknown,
                    ));
                }
                if let Some((base, lanes)) = dense_ramp(index) {
                    let rb = self.expr(base)?;
                    self.value(
                        POp::LoadDense {
                            buf,
                            base: rb,
                            lanes,
                        },
                        true,
                        PKind::Unknown,
                    )
                } else if let Some((inner, lo, hi)) = clamp_pattern(index) {
                    // Fusing the clamp into the gather requires the bounds
                    // to be scalars at run time too; `may_vec` is the
                    // binding-aware check (static types can be stale after
                    // vectorization).
                    if self.may_vec(lo) || self.may_vec(hi) {
                        let ri = self.expr(index)?;
                        self.value(
                            POp::Load { buf, index: ri },
                            self.vec_of(ri),
                            PKind::Unknown,
                        )
                    } else {
                        let ri = self.expr(inner)?;
                        let rlo = self.expr(lo)?;
                        let rhi = self.expr(hi)?;
                        self.value(
                            POp::LoadClamped {
                                buf,
                                index: ri,
                                lo: rlo,
                                hi: rhi,
                            },
                            self.vec_of(ri),
                            PKind::Unknown,
                        )
                    }
                } else {
                    let ri = self.expr(index)?;
                    self.value(
                        POp::Load { buf, index: ri },
                        self.vec_of(ri),
                        PKind::Unknown,
                    )
                }
            }
            ExprNode::Call {
                name,
                call_type,
                args,
                ..
            } => match call_type {
                CallType::Intrinsic => {
                    let f = CIntrinsic::resolve(name, args.len())?;
                    // `min`/`max` intrinsics have exactly the binary
                    // operator's semantics and count as one arithmetic op
                    // either way — linearize them as `Bin` so evaluation
                    // skips the argument-vector allocation.
                    if let (CIntrinsic::MinMax(op), 2) = (f, args.len()) {
                        let (a, b) = (&args[0], &args[1]);
                        let (a, b) = (fold_broadcast_against(a, b), fold_broadcast_against(b, a));
                        let (ra, rb) = (self.expr(a)?, self.expr(b)?);
                        self.value(
                            POp::Bin { op, a: ra, b: rb },
                            self.vec_of(ra) || self.vec_of(rb),
                            Self::bin_kind(self.kind_of(ra), self.kind_of(rb)),
                        )
                    } else {
                        let regs = args
                            .iter()
                            .map(|a| self.expr(a))
                            .collect::<Result<Vec<_>>>()?;
                        let vec = regs.iter().any(|r| self.vec_of(*r));
                        let kind = match f {
                            CIntrinsic::Unary(_) | CIntrinsic::Binary(_) => PKind::Float,
                            CIntrinsic::Abs => self.kind_of(regs[0]),
                            CIntrinsic::MinMax(_) => PKind::Unknown,
                        };
                        self.value(
                            POp::Intrinsic {
                                f,
                                name: name.clone(),
                                args: regs,
                            },
                            vec,
                            kind,
                        )
                    }
                }
                CallType::Halide | CallType::Image => {
                    return Err(ExecError::new(format!(
                        "call to {name:?} survived lowering; the statement was not flattened"
                    )))
                }
                CallType::Extern => {
                    return Err(ExecError::new(format!(
                        "extern function {name:?} is not registered with the executor"
                    )))
                }
            },
        })
    }

    fn stmt(&mut self, s: &Stmt) -> Result<()> {
        match s.node() {
            StmtNode::LetStmt { name, value, body } => {
                let rv = self.expr(value)?;
                self.bind_var(name, rv);
                let r = self.stmt(body);
                self.unbind_var(name);
                r?;
            }
            StmtNode::Assert { condition, message } => {
                let rc = self.expr(condition)?;
                self.push(
                    None,
                    POp::Assert {
                        cond: rc,
                        message: message.clone(),
                    },
                );
            }
            StmtNode::Producer {
                name,
                is_produce,
                body,
            } => {
                // Produce nests become paired profiler markers; consume
                // markers stay transparent (their time attributes to the
                // enclosing producer). Enter and Exit land in the same
                // block as the nest's statements, so pairs stay balanced
                // under any block-level splicing the optimizer does.
                if *is_produce {
                    let func = self.func_id(name);
                    self.push(None, POp::ProduceEnter { func });
                    self.stmt(body)?;
                    self.push(None, POp::ProduceExit);
                } else {
                    self.stmt(body)?;
                }
            }
            StmtNode::For {
                name,
                min,
                extent,
                kind,
                body,
            } => {
                let rmin = self.expr(min)?;
                let rext = self.expr(extent)?;
                // Peel the loop-invariant leading lets into the header block
                // (evaluated once per loop entry). Each value sees the
                // hoisted names bound before it.
                let (hoisted_src, inner) = peel_invariant_lets(body, name);
                let header = self.new_block();
                let mut bound_hoisted: Vec<&str> = Vec::with_capacity(hoisted_src.len());
                let mut first_err = None;
                for (n, v) in &hoisted_src {
                    let rv = self.in_block(header, |lz| lz.expr(v));
                    match rv {
                        Ok(rv) => {
                            self.bind_var(n, rv);
                            bound_hoisted.push(n);
                        }
                        Err(e) => {
                            first_err = Some(e);
                            break;
                        }
                    }
                }
                let body_done = match first_err {
                    Some(e) => Err(e),
                    None => {
                        let var = self.new_reg(false, PKind::Int);
                        self.bind_var(name, var);
                        let body_blk = self.new_block();
                        let r = self.in_block(body_blk, |lz| lz.stmt(inner));
                        self.unbind_var(name);
                        r.map(|()| (var, body_blk))
                    }
                };
                for n in bound_hoisted.iter().rev() {
                    self.unbind_var(n);
                }
                let (var, body_blk) = body_done?;
                self.push(
                    None,
                    POp::For {
                        var,
                        min: rmin,
                        extent: rext,
                        kind: *kind,
                        header,
                        body: body_blk,
                    },
                );
            }
            StmtNode::Store {
                name,
                value,
                index,
                predicate,
            } => {
                let buf = self.buf(name);
                if let Some(p) = predicate {
                    let rv = self.expr(value)?;
                    let ri = self.expr(index)?;
                    let rm = self.expr(p)?;
                    self.push(
                        None,
                        POp::StoreMasked {
                            buf,
                            value: rv,
                            index: ri,
                            mask: rm,
                        },
                    );
                    return Ok(());
                }
                if let Some((base, lanes)) = dense_ramp(index) {
                    let rb = self.expr(base)?;
                    let rv = self.expr(value)?;
                    self.push(
                        None,
                        POp::StoreDense {
                            buf,
                            value: rv,
                            base: rb,
                            lanes,
                        },
                    );
                } else {
                    let rv = self.expr(value)?;
                    let ri = self.expr(index)?;
                    self.push(
                        None,
                        POp::Store {
                            buf,
                            value: rv,
                            index: ri,
                        },
                    );
                }
            }
            StmtNode::Allocate {
                name,
                ty,
                size,
                body,
            } => {
                let rs = self.expr(size)?;
                let buf = self.bind_buf(name);
                let body_blk = self.new_block();
                let r = self.in_block(body_blk, |lz| lz.stmt(body));
                self.unbind_buf(name);
                r?;
                self.push(
                    None,
                    POp::Alloc {
                        buf,
                        ty: ty.scalar(),
                        size: rs,
                        body: body_blk,
                    },
                );
            }
            StmtNode::Block { stmts } => {
                for s in stmts {
                    self.stmt(s)?;
                }
            }
            StmtNode::IfThenElse {
                condition,
                then_case,
                else_case,
            } => {
                let rc = self.expr(condition)?;
                let then_b = self.new_block();
                self.in_block(then_b, |lz| lz.stmt(then_case))?;
                let else_b = match else_case {
                    Some(e) => {
                        let b = self.new_block();
                        self.in_block(b, |lz| lz.stmt(e))?;
                        Some(b)
                    }
                    None => None,
                };
                self.push(
                    None,
                    POp::If {
                        cond: rc,
                        then_b,
                        else_b,
                    },
                );
            }
            StmtNode::Evaluate { value } => {
                let rv = self.expr(value)?;
                self.push(None, POp::Evaluate { a: rv });
            }
            StmtNode::NoOp => {}
            StmtNode::Provide { name, .. } | StmtNode::Realize { name, .. } => {
                return Err(ExecError::new(format!(
                    "{name:?} was not flattened before execution"
                )))
            }
        }
        Ok(())
    }
}
