//! The PIR optimizer: a fixed-point pass pipeline between linearization
//! and emission.
//!
//! Passes (in pipeline order; see `docs/optimizer.md` for the catalog):
//!
//! * **const-fold** — evaluates operations over constant operands using the
//!   *same* runtime scalar routines the machine uses (bit-exact by
//!   construction), takes statically-decided selects/branches, and splices
//!   their taken arm inline.
//! * **simplify** — algebraic identities at the register level, integer
//!   only (float identities are not bit-exact): `x+0`, `x*1`, `x*0`,
//!   `x-x`, `x/1`, `x%1`, `min(x,x)`, `x==x`, …
//! * **strength-reduce** — `div`/`mod` by a constant power of two become an
//!   arithmetic shift / mask (exact under floor division), `mul` by a power
//!   of two becomes a shift (exact under wrapping arithmetic).
//! * **cse** — global value numbering over pure, cheap operations, scoped
//!   by the region tree; address arithmetic and ramp construction are the
//!   big wins.
//! * **licm** — hoists loop-invariant cheap registers into the loop header
//!   region, subsuming (and extending) the old compile-time let-peeling.
//! * **copy-prop** + **dce** — clean up the aliases and dead code the other
//!   passes leave behind.
//!
//! Every pass preserves the interpreter contract exactly — bit-identical
//! outputs *and* identical instrumentation counters — via the counter-
//! compensation scheme described in `pir.rs`.

use std::collections::{HashMap, HashSet};

use halide_ir::{BinOp, CmpOp, ScalarType};
use halide_runtime::{scalar_binary_op, scalar_compare_op, Scalar};

use crate::pir::{BlockId, PInst, PKind, POp, PirProgram, Reg};

/// How hard the compile pipeline optimizes. Everything compiles at
/// [`OptLevel::Default`] unless a caller asks for `None` explicitly (the
/// differential tests run every engine-agreement check at both levels).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum OptLevel {
    /// Linearize and emit only — no optimization passes. Observationally
    /// identical to the old single-pass compiler.
    None,
    /// The full fixed-point pass pipeline.
    #[default]
    Default,
}

impl OptLevel {
    /// Stable lowercase name (used in bench output and cache keys).
    pub fn name(self) -> &'static str {
        match self {
            OptLevel::None => "none",
            OptLevel::Default => "default",
        }
    }
}

/// Change count and wall time for one pass across all fixed-point
/// iterations.
#[derive(Debug, Clone)]
pub struct PassStat {
    /// Pass name (stable; used in bench JSON).
    pub name: &'static str,
    /// Number of rewrites the pass performed.
    pub changes: u64,
    /// Wall time spent in the pass, summed over iterations, in
    /// nanoseconds (the compile-telemetry surface).
    pub nanos: u64,
}

/// What the optimizer did to one program: the before/after instruction
/// counts (counter-compensation markers excluded) and per-pass change
/// totals. Attached to every compiled [`crate::Program`].
#[derive(Debug, Clone, Default)]
pub struct OptReport {
    /// The level the program was compiled at.
    pub level: OptLevel,
    /// Executable PIR instructions before optimization.
    pub before_insts: usize,
    /// Executable PIR instructions after optimization.
    pub after_insts: usize,
    /// Fixed-point iterations run (0 at [`OptLevel::None`]).
    pub iterations: u32,
    /// Per-pass aggregated change counts, in pipeline order.
    pub passes: Vec<PassStat>,
}

/// One snapshot of the PIR for `--dump-pir` / `examples/pir_stages.rs`:
/// the printed program after a named stage.
#[derive(Debug, Clone)]
pub struct PirStage {
    /// Stage label (`"linearized"`, or `"<pass> (iteration N)"`).
    pub name: String,
    /// Rewrites this stage performed (0 for the initial snapshot).
    pub changes: u64,
    /// The printed PIR.
    pub pir: String,
}

/// The pass pipeline, in order.
const PASSES: &[(&str, fn(&mut PirProgram) -> u64)] = &[
    ("const-fold", const_fold),
    ("simplify", simplify),
    ("strength-reduce", strength_reduce),
    ("cse", cse),
    ("licm", licm),
    ("copy-prop", copy_prop),
    ("dce", dce),
];

/// Cap on fixed-point iterations. It binds: over the benchmark's twelve
/// programs (six apps, naive and tuned, at 512x384) the pipeline runs 4-10
/// iterations, 100 in all, and five programs reach the cap (blur, bilateral
/// grid, camera pipe and local Laplacian tuned; local Laplacian naive).
/// Tuned bilateral grid, camera pipe and local Laplacian are still
/// rewriting at iteration 10; local Laplacian makes 3 CSE and 6 copy-prop
/// rewrites there. Raising the cap changes the emitted programs.
const MAX_ITERATIONS: u32 = 10;

/// Runs the pass pipeline on `p` to a fixed point. When `trace` is given,
/// a printed snapshot is pushed after every pass application that changed
/// the program.
pub(crate) fn optimize(
    p: &mut PirProgram,
    level: OptLevel,
    mut trace: Option<&mut Vec<PirStage>>,
) -> OptReport {
    let before = p.exec_inst_count();
    let mut report = OptReport {
        level,
        before_insts: before,
        after_insts: before,
        iterations: 0,
        passes: PASSES
            .iter()
            .map(|(name, _)| PassStat {
                name,
                changes: 0,
                nanos: 0,
            })
            .collect(),
    };
    if level == OptLevel::None {
        return report;
    }
    for iter in 1..=MAX_ITERATIONS {
        let mut total = 0;
        for (i, (name, pass)) in PASSES.iter().enumerate() {
            let start = std::time::Instant::now();
            let changes = pass(p);
            report.passes[i].nanos += start.elapsed().as_nanos() as u64;
            report.passes[i].changes += changes;
            total += changes;
            if changes > 0 {
                if let Some(t) = trace.as_deref_mut() {
                    t.push(PirStage {
                        name: format!("{name} (iteration {iter})"),
                        changes,
                        pir: p.print(),
                    });
                }
            }
        }
        report.iterations = iter;
        if total == 0 {
            break;
        }
    }
    report.after_insts = p.exec_inst_count();
    report
}

/// Registers currently holding a known integer constant (defined by a
/// reachable `const` instruction).
fn const_int_map(p: &PirProgram) -> Vec<Option<i64>> {
    let mut m = vec![None; p.n_regs as usize];
    for b in p.reachable() {
        for inst in &p.blocks[b as usize] {
            if let (Some(d), POp::ConstI(v)) = (inst.dst, &inst.op) {
                m[d as usize] = Some(*v);
            }
        }
    }
    m
}

/// Rewrites `inst` into a constant, updating the analysis side tables.
fn set_const(p: &mut PirProgram, inst: &mut PInst, consts: &mut [Option<Scalar>], s: Scalar) {
    let dst = inst.dst.expect("const rewrite requires a destination");
    inst.op = match s {
        Scalar::Int(v) => POp::ConstI(v),
        Scalar::Float(v) => POp::ConstF(v),
    };
    inst.weight = 1;
    p.vec[dst as usize] = false;
    p.kind[dst as usize] = if s.is_float() {
        PKind::Float
    } else {
        PKind::Int
    };
    consts[dst as usize] = Some(s);
}

/// Rewrites `inst` into a copy of `src`, updating the analysis side tables.
fn set_copy(p: &mut PirProgram, inst: &mut PInst, src: Reg) {
    let dst = inst.dst.expect("copy rewrite requires a destination");
    inst.op = POp::Copy(src);
    inst.weight = 1;
    p.vec[dst as usize] = p.vec[src as usize];
    p.kind[dst as usize] = p.kind[src as usize];
}

fn count_inst(arith: i64) -> PInst {
    PInst {
        dst: None,
        op: POp::Count { arith },
        weight: 1,
    }
}

// ---------------------------------------------------------------------------
// const-fold
// ---------------------------------------------------------------------------

fn const_fold(p: &mut PirProgram) -> u64 {
    let mut consts: Vec<Option<Scalar>> = vec![None; p.n_regs as usize];
    let mut changes = 0;
    fold_block(p, 0, &mut consts, &mut changes);
    changes
}

fn fold_block(p: &mut PirProgram, b: BlockId, consts: &mut Vec<Option<Scalar>>, changes: &mut u64) {
    let old = std::mem::take(&mut p.blocks[b as usize]);
    let mut new: Vec<PInst> = Vec::with_capacity(old.len());
    for mut inst in old {
        for sb in inst.op.sub_blocks() {
            fold_block(p, sb, consts, changes);
        }
        // How many arithmetic ops to compensate if this rewrite removes a
        // counted execution (the interpreter still performs it).
        let weight = if inst.op.counted() {
            inst.weight as i64
        } else {
            0
        };
        let mut comp = 0i64;
        match &inst.op {
            POp::ConstI(v) => consts[inst.dst.unwrap() as usize] = Some(Scalar::Int(*v)),
            POp::ConstF(v) => consts[inst.dst.unwrap() as usize] = Some(Scalar::Float(*v)),
            POp::Copy(a) => consts[inst.dst.unwrap() as usize] = consts[*a as usize],
            POp::Cast { ty, a } => {
                let folded = consts[*a as usize].map(|s| s.cast_to(*ty));
                if let Some(s) = folded {
                    set_const(p, &mut inst, consts, s);
                    *changes += 1;
                }
            }
            POp::Bin { op, a, b } => {
                let folded = match (consts[*a as usize], consts[*b as usize]) {
                    (Some(x), Some(y)) => Some(scalar_binary_op(*op, x, y)),
                    _ => None,
                };
                if let Some(s) = folded {
                    set_const(p, &mut inst, consts, s);
                    comp = weight;
                    *changes += 1;
                }
            }
            POp::Cmp { op, a, b } => {
                let folded = match (consts[*a as usize], consts[*b as usize]) {
                    (Some(x), Some(y)) => Some(scalar_compare_op(*op, x, y)),
                    _ => None,
                };
                if let Some(s) = folded {
                    set_const(p, &mut inst, consts, s);
                    comp = weight;
                    *changes += 1;
                }
            }
            POp::Not { a } => {
                // Matches the machine: `Int((s.as_i64() == 0) as i64)`.
                let folded = consts[*a as usize].map(|s| Scalar::Int((s.as_i64() == 0) as i64));
                if let Some(s) = folded {
                    set_const(p, &mut inst, consts, s);
                    *changes += 1;
                }
            }
            POp::Shl { a, bits } => {
                let folded = match consts[*a as usize] {
                    Some(Scalar::Int(x)) => Some(Scalar::Int(x.wrapping_shl(*bits))),
                    _ => None,
                };
                if let Some(s) = folded {
                    set_const(p, &mut inst, consts, s);
                    comp = weight;
                    *changes += 1;
                }
            }
            POp::Shr { a, bits } => {
                let folded = match consts[*a as usize] {
                    Some(Scalar::Int(x)) => Some(Scalar::Int(x >> bits)),
                    _ => None,
                };
                if let Some(s) = folded {
                    set_const(p, &mut inst, consts, s);
                    comp = weight;
                    *changes += 1;
                }
            }
            POp::AndMask { a, mask } => {
                let folded = match consts[*a as usize] {
                    Some(Scalar::Int(x)) => Some(Scalar::Int(x & mask)),
                    _ => None,
                };
                if let Some(s) = folded {
                    set_const(p, &mut inst, consts, s);
                    comp = weight;
                    *changes += 1;
                }
            }
            POp::Select {
                cond,
                t,
                t_val,
                f,
                f_val,
            } => {
                // A constant scalar condition decides the select statically:
                // splice the taken arm inline (its instructions — including
                // any counter compensation — now execute unconditionally,
                // exactly as the interpreter evaluates the taken arm) and
                // drop the untaken arm, which neither engine evaluates.
                if let Some(Scalar::Int(c)) = consts[*cond as usize] {
                    let (blk, val) = if c != 0 { (*t, *t_val) } else { (*f, *f_val) };
                    let arm = std::mem::take(&mut p.blocks[blk as usize]);
                    new.extend(arm);
                    consts[inst.dst.unwrap() as usize] = consts[val as usize];
                    set_copy(p, &mut inst, val);
                    *changes += 1;
                }
            }
            POp::And { a, rhs, rhs_val } => {
                if let Some(Scalar::Int(c)) = consts[*a as usize] {
                    if c == 0 {
                        set_const(p, &mut inst, consts, Scalar::Int(0));
                    } else {
                        // A scalar-true left side: the result is exactly the
                        // right side, which now evaluates unconditionally.
                        let (rhs, rhs_val) = (*rhs, *rhs_val);
                        let arm = std::mem::take(&mut p.blocks[rhs as usize]);
                        new.extend(arm);
                        consts[inst.dst.unwrap() as usize] = consts[rhs_val as usize];
                        set_copy(p, &mut inst, rhs_val);
                    }
                    *changes += 1;
                }
            }
            POp::Or { a, rhs, rhs_val } => {
                if let Some(Scalar::Int(c)) = consts[*a as usize] {
                    if c != 0 {
                        set_const(p, &mut inst, consts, Scalar::Int(1));
                    } else {
                        let (rhs, rhs_val) = (*rhs, *rhs_val);
                        let arm = std::mem::take(&mut p.blocks[rhs as usize]);
                        new.extend(arm);
                        consts[inst.dst.unwrap() as usize] = consts[rhs_val as usize];
                        set_copy(p, &mut inst, rhs_val);
                    }
                    *changes += 1;
                }
            }
            POp::If {
                cond,
                then_b,
                else_b,
            } => {
                if let Some(Scalar::Int(c)) = consts[*cond as usize] {
                    *changes += 1;
                    let taken = if c != 0 { Some(*then_b) } else { *else_b };
                    if let Some(blk) = taken {
                        let body = std::mem::take(&mut p.blocks[blk as usize]);
                        new.extend(body);
                    }
                    continue; // the branch itself is decided; drop it
                }
            }
            POp::Assert { cond, .. } => {
                // A statically-true assertion can never fire; false (or
                // unknown) conditions must stay for their runtime error.
                if let Some(Scalar::Int(c)) = consts[*cond as usize] {
                    if c != 0 {
                        *changes += 1;
                        continue;
                    }
                }
            }
            _ => {}
        }
        new.push(inst);
        if comp > 0 {
            new.push(count_inst(comp));
        }
    }
    p.blocks[b as usize] = new;
}

// ---------------------------------------------------------------------------
// simplify
// ---------------------------------------------------------------------------

fn simplify(p: &mut PirProgram) -> u64 {
    enum Rewrite {
        CopyOf(Reg),
        IntConst(i64),
    }
    let consts = const_int_map(p);
    let mut changes = 0;
    for blk in p.reachable() {
        let old = std::mem::take(&mut p.blocks[blk as usize]);
        let mut new: Vec<PInst> = Vec::with_capacity(old.len());
        for mut inst in old {
            let rewrite = match (&inst.op, inst.dst) {
                // Integer-only algebra: the result register must be a
                // proven integer (float identities like `x + 0.0` and
                // NaN-afflicted comparisons are not bit-exact).
                (POp::Bin { op, a, b }, Some(dst)) if p.kind[dst as usize] == PKind::Int => {
                    let (ca, cb) = (consts[*a as usize], consts[*b as usize]);
                    match op {
                        BinOp::Add if cb == Some(0) => Some(Rewrite::CopyOf(*a)),
                        BinOp::Add if ca == Some(0) => Some(Rewrite::CopyOf(*b)),
                        BinOp::Sub if cb == Some(0) => Some(Rewrite::CopyOf(*a)),
                        BinOp::Sub if a == b => Some(Rewrite::IntConst(0)),
                        BinOp::Mul if cb == Some(1) => Some(Rewrite::CopyOf(*a)),
                        BinOp::Mul if ca == Some(1) => Some(Rewrite::CopyOf(*b)),
                        BinOp::Mul if cb == Some(0) || ca == Some(0) => Some(Rewrite::IntConst(0)),
                        BinOp::Div if cb == Some(1) => Some(Rewrite::CopyOf(*a)),
                        // Halide semantics: x/0 == 0 and x%0 == 0.
                        BinOp::Div if cb == Some(0) => Some(Rewrite::IntConst(0)),
                        BinOp::Mod if cb == Some(1) || cb == Some(0) => Some(Rewrite::IntConst(0)),
                        BinOp::Min | BinOp::Max if a == b => Some(Rewrite::CopyOf(*a)),
                        _ => None,
                    }
                }
                (POp::Cmp { op, a, b }, Some(_)) if a == b && p.kind[*a as usize] == PKind::Int => {
                    match op {
                        CmpOp::Eq | CmpOp::Le | CmpOp::Ge => Some(Rewrite::IntConst(1)),
                        CmpOp::Ne | CmpOp::Lt | CmpOp::Gt => Some(Rewrite::IntConst(0)),
                    }
                }
                _ => None,
            };
            if let Some(rw) = rewrite {
                changes += 1;
                let comp = if inst.op.counted() {
                    inst.weight as i64
                } else {
                    0
                };
                match rw {
                    Rewrite::CopyOf(src) => set_copy(p, &mut inst, src),
                    Rewrite::IntConst(v) => {
                        let dst = inst.dst.expect("rewritten ops have a destination");
                        inst.op = POp::ConstI(v);
                        inst.weight = 1;
                        p.vec[dst as usize] = false;
                        p.kind[dst as usize] = PKind::Int;
                    }
                }
                new.push(inst);
                if comp > 0 {
                    new.push(count_inst(comp));
                }
            } else {
                new.push(inst);
            }
        }
        p.blocks[blk as usize] = new;
    }
    changes
}

// ---------------------------------------------------------------------------
// strength reduction
// ---------------------------------------------------------------------------

/// `Some(log2(c))` when `c` is a power of two of at least 2.
fn pow2_exponent(c: i64) -> Option<u32> {
    if c >= 2 && (c & (c - 1)) == 0 {
        Some(c.trailing_zeros())
    } else {
        None
    }
}

fn strength_reduce(p: &mut PirProgram) -> u64 {
    let consts = const_int_map(p);
    let mut changes = 0;
    for blk in p.reachable() {
        // Rewrites are in place (no insertions): the shift/mask forms keep
        // the original instruction's weight, so counters are untouched.
        for i in 0..p.blocks[blk as usize].len() {
            let new_op = {
                let inst = &p.blocks[blk as usize][i];
                let &POp::Bin { op, a, b } = &inst.op else {
                    continue;
                };
                let int_a = p.kind[a as usize] == PKind::Int;
                let int_b = p.kind[b as usize] == PKind::Int;
                match op {
                    // Floor division by 2^k is an arithmetic shift for *all*
                    // i64 (including negatives), and floor modulo by 2^k is
                    // a mask — that is what makes Euclidean semantics
                    // shiftable.
                    BinOp::Div if int_a => consts[b as usize]
                        .and_then(pow2_exponent)
                        .map(|bits| POp::Shr { a, bits }),
                    BinOp::Mod if int_a => consts[b as usize]
                        .filter(|c| pow2_exponent(*c).is_some())
                        .map(|c| POp::AndMask { a, mask: c - 1 }),
                    // Wrapping multiplication by 2^k is a left shift.
                    BinOp::Mul => {
                        let by_b = if int_a {
                            consts[b as usize]
                                .and_then(pow2_exponent)
                                .map(|bits| POp::Shl { a, bits })
                        } else {
                            None
                        };
                        by_b.or_else(|| {
                            if int_b {
                                consts[a as usize]
                                    .and_then(pow2_exponent)
                                    .map(|bits| POp::Shl { a: b, bits })
                            } else {
                                None
                            }
                        })
                    }
                    _ => None,
                }
            };
            if let Some(new_op) = new_op {
                p.blocks[blk as usize][i].op = new_op;
                changes += 1;
            }
        }
    }
    changes
}

// ---------------------------------------------------------------------------
// CSE / GVN
// ---------------------------------------------------------------------------

#[derive(PartialEq, Eq, Hash)]
enum Key {
    ConstI(i64),
    ConstF(u64),
    Cast(ScalarType, Reg),
    Bin(BinOp, Reg, Reg),
    Cmp(CmpOp, Reg, Reg),
    Not(Reg),
    Shl(Reg, u32),
    Shr(Reg, u32),
    Mask(Reg, i64),
    Ramp(Reg, Reg, u16),
    Call(String, Vec<Reg>),
}

/// The value number of a pure operation, when it has one. Operands of
/// commutative operators are sorted so `a + b` and `b + a` unify.
fn key_of(op: &POp) -> Option<Key> {
    Some(match op {
        POp::ConstI(v) => Key::ConstI(*v),
        POp::ConstF(v) => Key::ConstF(v.to_bits()),
        POp::Cast { ty, a } => Key::Cast(*ty, *a),
        POp::Bin { op, a, b } => {
            let (a, b) = match op {
                BinOp::Add | BinOp::Mul | BinOp::Min | BinOp::Max => (*a.min(b), *a.max(b)),
                _ => (*a, *b),
            };
            Key::Bin(*op, a, b)
        }
        POp::Cmp { op, a, b } => {
            let (a, b) = match op {
                CmpOp::Eq | CmpOp::Ne => (*a.min(b), *a.max(b)),
                _ => (*a, *b),
            };
            Key::Cmp(*op, a, b)
        }
        POp::Not { a } => Key::Not(*a),
        POp::Shl { a, bits } => Key::Shl(*a, *bits),
        POp::Shr { a, bits } => Key::Shr(*a, *bits),
        POp::AndMask { a, mask } => Key::Mask(*a, *mask),
        POp::Ramp {
            base,
            stride,
            lanes,
        } => Key::Ramp(*base, *stride, *lanes),
        POp::Intrinsic { name, args, .. } => Key::Call(name.clone(), args.clone()),
        _ => return None,
    })
}

fn cse(p: &mut PirProgram) -> u64 {
    let mut changes = 0;
    let mut scopes: Vec<HashMap<Key, Reg>> = vec![HashMap::new()];
    cse_block(p, 0, &mut scopes, &mut changes);
    changes
}

fn lookup(scopes: &[HashMap<Key, Reg>], key: &Key) -> Option<Reg> {
    scopes.iter().rev().find_map(|s| s.get(key).copied())
}

fn cse_block(
    p: &mut PirProgram,
    b: BlockId,
    scopes: &mut Vec<HashMap<Key, Reg>>,
    changes: &mut u64,
) {
    let old = std::mem::take(&mut p.blocks[b as usize]);
    let mut new: Vec<PInst> = Vec::with_capacity(old.len());
    for mut inst in old {
        match &inst.op {
            // A loop header's values are computed before any iteration, so
            // they stay available inside the body; everything defined in
            // either dies with the loop.
            POp::For { header, body, .. } => {
                let (header, body) = (*header, *body);
                scopes.push(HashMap::new());
                cse_block(p, header, scopes, changes);
                scopes.push(HashMap::new());
                cse_block(p, body, scopes, changes);
                scopes.pop();
                scopes.pop();
            }
            op if !op.sub_blocks().is_empty() => {
                // Conditional / scoped regions: values computed inside are
                // not available after the region.
                for sb in op.sub_blocks() {
                    scopes.push(HashMap::new());
                    cse_block(p, sb, scopes, changes);
                    scopes.pop();
                }
            }
            _ => {
                if let (Some(dst), Some(key)) = (inst.dst, key_of(&inst.op)) {
                    if p.cheap_reg(dst, &inst.op) {
                        if let Some(prev) = lookup(scopes, &key) {
                            *changes += 1;
                            // The interpreter still evaluates the duplicate
                            // at this site: compensate its count here.
                            let comp = if inst.op.counted() && inst.weight > 0 {
                                inst.weight as i64
                            } else {
                                0
                            };
                            set_copy(p, &mut inst, prev);
                            new.push(inst);
                            if comp > 0 {
                                new.push(count_inst(comp));
                            }
                            continue;
                        }
                        scopes
                            .last_mut()
                            .expect("cse scope stack is never empty")
                            .insert(key, dst);
                    }
                }
            }
        }
        new.push(inst);
    }
    p.blocks[b as usize] = new;
}

// ---------------------------------------------------------------------------
// LICM
// ---------------------------------------------------------------------------

fn licm(p: &mut PirProgram) -> u64 {
    let mut changes = 0;
    for b in p.reachable() {
        for idx in 0..p.blocks[b as usize].len() {
            if let POp::For {
                var, header, body, ..
            } = p.blocks[b as usize][idx].op
            {
                changes += hoist_loop(p, var, header, body);
            }
        }
    }
    changes
}

/// True when `inst` computes a pure, cheap value whose operands are all
/// defined outside `defined` — safe and profitable to evaluate once per
/// loop entry instead of once per iteration. (Pure integer/float register
/// arithmetic cannot trap: division by zero is total under Halide
/// semantics, so executing it for a zero-iteration loop is harmless.)
fn hoistable(p: &PirProgram, inst: &PInst, defined: &HashSet<Reg>) -> bool {
    let Some(dst) = inst.dst else { return false };
    if !inst.op.pure_value()
        || matches!(inst.op, POp::Copy(_) | POp::ConstI(_) | POp::ConstF(_))
        || !p.cheap_reg(dst, &inst.op)
    {
        return false;
    }
    let mut ok = true;
    inst.op.for_each_operand(|r| {
        if defined.contains(&r) {
            ok = false;
        }
    });
    ok
}

/// Moves an instruction out of `src` position into `dest_header`, leaving a
/// counter-compensation marker at the original site when the instruction is
/// counted (it keeps executing — once per entry instead of per iteration —
/// but stops counting; emission pairs the weight-0 instruction with a
/// negative count so the per-entry total is zero).
fn hoist_insts(
    p: &mut PirProgram,
    src: BlockId,
    dest_header: BlockId,
    defined: &HashSet<Reg>,
) -> u64 {
    let mut moved: Vec<PInst> = Vec::new();
    let old = std::mem::take(&mut p.blocks[src as usize]);
    let mut new: Vec<PInst> = Vec::with_capacity(old.len());
    for mut inst in old {
        if hoistable(p, &inst, defined) {
            if inst.op.counted() && inst.weight > 0 {
                new.push(count_inst(inst.weight as i64));
                inst.weight = 0;
            }
            moved.push(inst);
        } else {
            new.push(inst);
        }
    }
    let n = moved.len() as u64;
    p.blocks[src as usize] = new;
    p.blocks[dest_header as usize].extend(moved);
    n
}

fn hoist_loop(p: &mut PirProgram, var: Reg, header: BlockId, body: BlockId) -> u64 {
    // Registers whose value changes across iterations: the loop variable
    // and everything the body computes.
    let mut defined: HashSet<Reg> = p.blocks[body as usize]
        .iter()
        .filter_map(|i| i.dst)
        .collect();
    defined.insert(var);
    let mut changes = hoist_insts(p, body, header, &defined);

    // Inner-loop headers run once per outer iteration; instructions there
    // that do not depend on this loop either can move one level further out
    // (multi-level hoisting happens across fixed-point iterations).
    for idx in 0..p.blocks[body as usize].len() {
        if let POp::For {
            header: inner_header,
            ..
        } = p.blocks[body as usize][idx].op
        {
            let mut forbidden = defined.clone();
            for i in &p.blocks[inner_header as usize] {
                if let Some(d) = i.dst {
                    forbidden.insert(d);
                }
            }
            changes += hoist_insts(p, inner_header, header, &forbidden);
        }
    }
    changes
}

// ---------------------------------------------------------------------------
// copy propagation
// ---------------------------------------------------------------------------

fn copy_prop(p: &mut PirProgram) -> u64 {
    let reachable = p.reachable();
    let mut resolve: Vec<Option<Reg>> = vec![None; p.n_regs as usize];
    let mut any = false;
    for b in &reachable {
        for inst in &p.blocks[*b as usize] {
            if let (Some(dst), POp::Copy(src)) = (inst.dst, &inst.op) {
                resolve[dst as usize] = Some(*src);
                any = true;
            }
        }
    }
    if !any {
        return 0;
    }
    let chase = |mut r: Reg| {
        // SSA defs are acyclic, so the chain terminates.
        while let Some(s) = resolve[r as usize] {
            r = s;
        }
        r
    };
    let mut changes = 0;
    for b in &reachable {
        for inst in &mut p.blocks[*b as usize] {
            if matches!(inst.op, POp::Copy(_)) {
                continue; // keep the definition itself; DCE removes it
            }
            inst.op.for_each_operand_mut(|r| {
                let t = chase(*r);
                if t != *r {
                    *r = t;
                    changes += 1;
                }
            });
        }
    }
    changes
}

// ---------------------------------------------------------------------------
// DCE
// ---------------------------------------------------------------------------

fn dce(p: &mut PirProgram) -> u64 {
    let mut changes = 0;
    loop {
        let counts = p.use_counts();
        let mut removed = 0u64;
        for b in p.reachable() {
            let old = std::mem::take(&mut p.blocks[b as usize]);
            let mut new: Vec<PInst> = Vec::with_capacity(old.len());
            for inst in old {
                let dead =
                    inst.op.pure_value() && inst.dst.is_some_and(|d| counts[d as usize] == 0);
                if dead {
                    removed += 1;
                    // The interpreter still evaluates the (textually
                    // present) dead expression and counts it.
                    if inst.op.counted() && inst.weight > 0 {
                        new.push(count_inst(inst.weight as i64));
                    }
                } else {
                    new.push(inst);
                }
            }
            p.blocks[b as usize] = new;
        }
        changes += removed;
        if removed == 0 {
            break;
        }
    }
    // Tidy the compensation stream: merge adjacent markers, drop zeros.
    // (Not counted as changes — merging is cosmetic and idempotent.)
    for b in p.reachable() {
        let old = std::mem::take(&mut p.blocks[b as usize]);
        let mut new: Vec<PInst> = Vec::with_capacity(old.len());
        for inst in old {
            if let POp::Count { arith } = inst.op {
                if let Some(PInst {
                    op: POp::Count { arith: prev },
                    ..
                }) = new.last_mut()
                {
                    *prev += arith;
                    continue;
                }
                if arith == 0 {
                    continue;
                }
            }
            new.push(inst);
        }
        new.retain(|i| !matches!(i.op, POp::Count { arith: 0 }));
        p.blocks[b as usize] = new;
    }
    changes
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::compile::Program;
    use crate::eval::{eval_stmt, Context, Frame};
    use crate::machine::{exec, Machine};
    use crate::pir::linearize;
    use halide_ir::{Expr, ForKind, ScalarType as IrScalarType, Stmt, Type};
    use halide_runtime::{Buffer, ThreadPool};
    use proptest::prelude::*;

    // ---- golden-IR tests: one small program per pass, exact printed PIR ----

    /// Linearizes `s`, runs one pass over it, and returns the printed PIR.
    fn pir_after(s: &Stmt, pass: fn(&mut PirProgram) -> u64) -> String {
        let mut p = linearize(s).expect("test statement linearizes");
        pass(&mut p);
        p.print()
    }

    /// Exact-match golden assertion with a paste-ready diff on failure.
    fn assert_golden(actual: &str, expected: &str, what: &str) {
        assert!(
            actual.trim_end() == expected.trim_end(),
            "{what}: golden PIR mismatch.\n-- actual --\n{actual}\n-- expected --\n{expected}"
        );
    }

    /// `for i in [0, n): out[i] = value` — the loop body every pass test
    /// hangs its expression under.
    fn store_loop(value: Expr, n: i32) -> Stmt {
        Stmt::for_loop(
            "i",
            Expr::int(0),
            Expr::int(n),
            ForKind::Serial,
            Stmt::store("out", value, Expr::var_i32("i")),
        )
    }

    #[test]
    fn golden_const_fold_evaluates_constant_arithmetic() {
        // out[2*3 + 5] = 1.5 — the whole index folds to 11, with count
        // markers keeping the interpreter's two arithmetic ops accounted.
        let s = Stmt::store("out", Expr::f32(1.5), Expr::int(2) * 3 + 5);
        let actual = pir_after(&s, const_fold);
        assert_golden(&actual, GOLDEN_CONST_FOLD, "const-fold");
    }

    #[test]
    fn golden_simplify_removes_integer_identities() {
        // out[i*1 + 0] = 2.0 — `*1` and `+0` reduce to copies of i.
        let s = Stmt::for_loop(
            "i",
            Expr::int(0),
            Expr::int(4),
            ForKind::Serial,
            Stmt::store("out", Expr::f32(2.0), Expr::var_i32("i") * 1 + 0),
        );
        let actual = pir_after(&s, simplify);
        assert_golden(&actual, GOLDEN_SIMPLIFY, "simplify");
    }

    #[test]
    fn golden_strength_reduce_uses_shifts_and_masks() {
        // i*8 -> shl 3, i/4 -> shr 2, i%8 -> and_mask 7 (floor semantics).
        let i = Expr::var_i32("i");
        let value = (i.clone() * 8 + i.clone() / 4 + i.clone() % 8).cast(Type::f32());
        let actual = pir_after(&store_loop(value, 8), strength_reduce);
        assert_golden(&actual, GOLDEN_STRENGTH_REDUCE, "strength-reduce");
    }

    #[test]
    fn golden_cse_dedupes_pure_subexpressions() {
        // (i*3) + (i*3): the second multiply becomes a copy plus a count
        // marker compensating the arithmetic op the interpreter still does.
        let i = Expr::var_i32("i");
        let value = (i.clone() * 3 + i.clone() * 3).cast(Type::f32());
        let actual = pir_after(&store_loop(value, 4), cse);
        assert_golden(&actual, GOLDEN_CSE, "cse");
    }

    #[test]
    fn golden_licm_hoists_invariant_arithmetic() {
        // n*n is invariant in i (both operands defined outside the loop):
        // it moves to the loop's header region and its weight drops to 0
        // (executed once per loop entry, counted once per iteration).
        let n = Expr::var_i32("n");
        let value = (n.clone() * n.clone()).cast(Type::f32());
        let actual = pir_after(&store_loop(value, 4), licm);
        assert_golden(&actual, GOLDEN_LICM, "licm");
    }

    #[test]
    fn golden_dce_drops_unused_pure_code() {
        // let t = i*7 in (i as f32): t is dead; the multiply disappears and
        // a count marker keeps the interpreter's evaluation accounted.
        let i = Expr::var_i32("i");
        let value = Expr::let_in("t", i.clone() * 7, i.clone().cast(Type::f32()));
        let actual = pir_after(&store_loop(value, 4), dce);
        assert_golden(&actual, GOLDEN_DCE, "dce");
    }

    const GOLDEN_CONST_FOLD: &str = "\
pir {
  buf b0 = \"out\" (free)
  L0:
    r0 = const 1.5
    r1 = const 2
    r2 = const 3
    r3 = const 6
    count 1
    r4 = const 5
    r5 = const 11
    count 1
    store b0[r5] = r0
}";

    const GOLDEN_SIMPLIFY: &str = "\
pir {
  buf b0 = \"out\" (free)
  L0:
    r0 = const 0
    r1 = const 4
    for r2 in [r0, r0+r1) Serial header L1 body L2
  L1:
  L2:
    r3 = const 2.0
    r4 = const 1
    r5 = copy r2
    count 1
    r6 = const 0
    r7 = copy r5
    count 1
    store b0[r7] = r3
}";

    const GOLDEN_STRENGTH_REDUCE: &str = "\
pir {
  buf b0 = \"out\" (free)
  L0:
    r0 = const 0
    r1 = const 8
    for r2 in [r0, r0+r1) Serial header L1 body L2
  L1:
  L2:
    r3 = const 8
    r4 = shl r2, 3
    r5 = const 4
    r6 = shr r2, 2
    r7 = add r4, r6
    r8 = const 8
    r9 = and_mask r2, 7
    r10 = add r7, r9
    r11 = cast.float32 r10
    store b0[r2] = r11
}";

    // One cse application value-numbers the repeated constant; the second
    // multiply dedupes on the next fixed-point iteration, once copy-prop
    // has rewritten its operand to r3.
    const GOLDEN_CSE: &str = "\
pir {
  buf b0 = \"out\" (free)
  L0:
    r0 = const 0
    r1 = const 4
    for r2 in [r0, r0+r1) Serial header L1 body L2
  L1:
  L2:
    r3 = const 3
    r4 = mul r2, r3
    r5 = copy r3
    r6 = mul r2, r5
    r7 = add r4, r6
    r8 = cast.float32 r7
    store b0[r2] = r8
}";

    const GOLDEN_LICM: &str = "\
pir {
  free r3 = \"n\"
  buf b0 = \"out\" (free)
  L0:
    r0 = const 0
    r1 = const 4
    for r2 in [r0, r0+r1) Serial header L1 body L2
  L1:
    r4 = mul r3, r3 !w0
  L2:
    count 1
    r5 = cast.float32 r4
    store b0[r2] = r5
}";

    const GOLDEN_DCE: &str = "\
pir {
  buf b0 = \"out\" (free)
  L0:
    r0 = const 0
    r1 = const 4
    for r2 in [r0, r0+r1) Serial header L1 body L2
  L1:
  L2:
    count 1
    r5 = cast.float32 r2
    store b0[r2] = r5
}";

    #[test]
    fn report_tracks_fixed_point_and_sizes() {
        let i = Expr::var_i32("i");
        let value = (i.clone() * 8 + i.clone() * 8 + Expr::int(2) * 3).cast(Type::f32());
        let mut p = linearize(&store_loop(value, 8)).unwrap();
        let before = p.exec_inst_count();
        let report = optimize(&mut p, OptLevel::Default, None);
        assert_eq!(report.level, OptLevel::Default);
        assert_eq!(report.before_insts, before);
        assert_eq!(report.after_insts, p.exec_inst_count());
        assert!(report.after_insts < report.before_insts);
        assert!(report.iterations >= 1);
        let names: Vec<&str> = report.passes.iter().map(|p| p.name).collect();
        assert_eq!(
            names,
            [
                "const-fold",
                "simplify",
                "strength-reduce",
                "cse",
                "licm",
                "copy-prop",
                "dce"
            ]
        );
        // At least the folder, the deduper, and the strength reducer fired.
        for name in ["const-fold", "cse", "strength-reduce"] {
            let stat = report.passes.iter().find(|p| p.name == name).unwrap();
            assert!(stat.changes > 0, "{name} reported no changes");
        }

        // OptLevel::None is the identity.
        let mut q = linearize(&store_loop((Expr::var_i32("i") * 8).cast(Type::f32()), 8)).unwrap();
        let printed = q.print();
        let report = optimize(&mut q, OptLevel::None, None);
        assert_eq!(report.iterations, 0);
        assert_eq!(report.before_insts, report.after_insts);
        assert_eq!(q.print(), printed);
    }

    // ---- property tests: passes preserve results and counters -------------

    /// Runs `s` on the interpreter and on the compiled engine at both
    /// optimizer levels; asserts bit-identical float buffers and identical
    /// counters across all three.
    fn assert_levels_agree(s: &Stmt, out_len: i64, bind_n: Option<i64>) {
        let run_ctx = || Context::new(ThreadPool::new(2), true);

        // Interpreter reference.
        let ictx = run_ctx();
        let mut frame = Frame::default();
        let iout = Arc::new(Buffer::with_extents(IrScalarType::Float(32), &[out_len]));
        frame.insert_buffer("out".to_string(), Arc::clone(&iout));
        if let Some(n) = bind_n {
            frame
                .env
                .push("n".to_string(), halide_runtime::Value::int(n));
        }
        eval_stmt(s, &mut frame, &ictx).unwrap();
        let reference = iout.to_f64_vec();
        let mut rc = ictx.counters.snapshot();
        rc.peak_bytes_live = 0;

        for level in [OptLevel::None, OptLevel::Default] {
            let prog = Program::compile_stmt_with(s, level).unwrap();
            let cctx = run_ctx();
            let mut m = Machine::new(&prog);
            let cout = Arc::new(Buffer::with_extents(IrScalarType::Float(32), &[out_len]));
            if let Some(idx) = prog.free_buf("out") {
                m.set_buf(idx, Arc::clone(&cout));
            }
            if let Some(n) = bind_n {
                if let Some(slot) = prog.free_slot("n") {
                    m.set_reg(slot, halide_runtime::Scalar::Int(n));
                }
            }
            exec(&prog, &prog.body, &mut m, &cctx).unwrap();
            let got = cout.to_f64_vec();
            assert_eq!(got.len(), reference.len());
            for (i, (x, y)) in got.iter().zip(reference.iter()).enumerate() {
                assert!(
                    x.to_bits() == y.to_bits(),
                    "out[{i}] at {level:?}: compiled {x} != interp {y}"
                );
            }
            let mut cc = cctx.counters.snapshot();
            cc.peak_bytes_live = 0;
            assert_eq!(cc, rc, "counters diverge at {level:?}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Random integer expression shapes through the full pipeline:
        /// every optimizer level produces the interpreter's exact outputs
        /// and counters. The constants are chosen to tickle every pass —
        /// pow2 and non-pow2 divisors, foldable subtrees, repeated
        /// subexpressions, loop-invariant terms.
        #[test]
        fn random_programs_agree_at_every_opt_level(
            a in -7i64..8,
            b in 1i64..9,
            c in prop_oneof![Just(2i64), Just(3), Just(4), Just(5), Just(8), Just(16)],
            n in -3i64..12,
            shape in 0u8..6,
        ) {
            let i = Expr::var_i32("i");
            let nv = Expr::var_i32("n");
            let ai = Expr::int(a as i32);
            let bi = Expr::int(b as i32);
            let ci = Expr::int(c as i32);
            let base: Expr = match shape {
                // repeated subexpression (cse) + pow2 mul (strength-reduce)
                0 => i.clone() * 8 + i.clone() * 8 + ai.clone() * bi.clone(),
                // floor div/mod by drawn divisor (strength-reduce + fold)
                1 => i.clone() / ci.clone() + i.clone() % ci.clone() + ai.clone(),
                // loop-invariant term (licm) over a free scalar
                2 => nv.clone() * bi.clone() + i.clone(),
                // identities (simplify) around a live core
                3 => (i.clone() * 1 + 0) * bi.clone() - i.clone() + ai.clone(),
                // branchy: select with a data-dependent condition
                4 => Expr::select(
                    Expr::lt(i.clone() % ci.clone(), bi.clone()),
                    i.clone() * ai.clone(),
                    i.clone() + bi.clone(),
                ),
                // dead let (dce) wrapping the value
                _ => Expr::let_in("t", i.clone() * 7, i.clone() * bi.clone() + ai.clone()),
            };
            let value = base.cast(Type::f32());
            assert_levels_agree(&store_loop(value, 8), 8, Some(n));
        }
    }
}
