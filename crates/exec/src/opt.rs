//! The PIR optimizer: one walk of four passes between linearization and
//! emission.
//!
//! Passes (in walk order; see `docs/optimizer.md` for the catalog):
//!
//! * **strength-reduce** — `div`/`mod` by a constant power of two become an
//!   arithmetic shift / mask (exact under floor division), `mul` by a power
//!   of two becomes a shift (exact under wrapping arithmetic).
//! * **licm** — hoists loop-invariant cheap registers into the loop header
//!   region, loops innermost first, so an invariant chain reaches the
//!   outermost legal header in one walk.
//! * **cse** — global value numbering over pure, cheap operations, scoped
//!   by the region tree; every operand is rewritten to its value number as
//!   the walk goes, so one dedupe exposes the next. Address arithmetic and
//!   ramp construction are the big wins.
//! * **dce** — one backward walk deletes what the others left unused.
//!
//! Each pass runs once: no pass creates work for a pass before it, so the
//! result is a fixed point of the whole sequence (a second walk changes
//! nothing). Every pass preserves the interpreter contract exactly —
//! bit-identical outputs *and* identical instrumentation counters — via the
//! counter-compensation scheme described in `pir.rs`.

use std::collections::HashMap;

use halide_ir::{BinOp, CmpOp, ScalarType};

use crate::pir::{BlockId, PInst, PKind, POp, PirProgram, Reg};

/// How hard the compile pipeline optimizes. Everything compiles at
/// [`OptLevel::Default`] unless a caller asks for `None` explicitly (the
/// differential tests run every engine-agreement check at both levels).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum OptLevel {
    /// Linearize and emit only — no optimization passes. Observationally
    /// identical to the old single-pass compiler.
    None,
    /// One walk of the pass sequence.
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

/// Change count and wall time for one pass.
#[derive(Debug, Clone)]
pub struct PassStat {
    /// Pass name (stable; used in bench JSON).
    pub name: &'static str,
    /// Number of rewrites the pass performed.
    pub changes: u64,
    /// Wall time spent in the pass, in nanoseconds (the compile-telemetry
    /// surface).
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
    /// Walks of the pass sequence: 1 at [`OptLevel::Default`], 0 at
    /// [`OptLevel::None`].
    pub iterations: u32,
    /// Per-pass change counts, in walk order.
    pub passes: Vec<PassStat>,
}

/// One snapshot of the PIR for `--dump-pir` / `examples/pir_stages.rs`:
/// the printed program after a named stage.
#[derive(Debug, Clone)]
pub struct PirStage {
    /// Stage label (`"linearized"`, or the name of the pass).
    pub name: String,
    /// Rewrites this stage performed (0 for the initial snapshot).
    pub changes: u64,
    /// The printed PIR.
    pub pir: String,
}

/// A pass: rewrites the program and returns how many rewrites it made.
type Pass = fn(&mut PirProgram) -> u64;

/// The pass sequence, in walk order.
const PASSES: &[(&str, Pass)] = &[
    ("strength-reduce", strength_reduce),
    ("licm", licm),
    ("cse", cse),
    ("dce", dce),
];

/// Runs each pass once over `p`, in order. When `trace` is given, a printed
/// snapshot is pushed after every pass that changed the program.
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
    for ((name, pass), stat) in PASSES.iter().zip(&mut report.passes) {
        let start = std::time::Instant::now();
        stat.changes = pass(p);
        stat.nanos = start.elapsed().as_nanos() as u64;
        if stat.changes > 0 {
            if let Some(t) = trace.as_deref_mut() {
                t.push(PirStage {
                    name: name.to_string(),
                    changes: stat.changes,
                    pir: p.print(),
                });
            }
        }
    }
    report.iterations = 1;
    report.after_insts = p.exec_inst_count();
    report
}

/// The `count` marker a counted instruction leaves behind when it stops
/// counting at its site (the interpreter still evaluates it there).
fn compensation(inst: &PInst) -> Option<PInst> {
    (inst.op.counted() && inst.weight > 0).then_some(PInst {
        dst: None,
        op: POp::Count {
            arith: inst.weight as i64,
        },
        weight: 1,
    })
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
    // Registers holding a known integer constant.
    let mut consts = vec![None; p.n_regs as usize];
    let reachable = p.reachable();
    for b in &reachable {
        for inst in &p.blocks[*b as usize] {
            if let (Some(d), POp::ConstI(v)) = (inst.dst, &inst.op) {
                consts[d as usize] = Some(*v);
            }
        }
    }
    let mut changes = 0;
    for blk in reachable {
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
// LICM
// ---------------------------------------------------------------------------

/// Where a register stands while one loop is being hoisted from.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Place {
    /// Defined outside the candidate blocks: invariant.
    Outside,
    /// Defined by a candidate that stays: changes across iterations.
    Variant,
    /// A constant in a candidate block that no hoisted instruction reads.
    Const,
    /// Moves to the loop's header.
    Hoist,
}

fn licm(p: &mut PirProgram) -> u64 {
    let mut place = vec![Place::Outside; p.n_regs as usize];
    let mut changes = 0;
    licm_block(p, 0, &mut place, &mut changes);
    changes
}

/// Hoists out of every loop under block `b`, innermost loops first, so
/// what an inner loop moves to its header can move on out of the loops
/// around it.
fn licm_block(p: &mut PirProgram, b: BlockId, place: &mut [Place], changes: &mut u64) {
    for idx in 0..p.blocks[b as usize].len() {
        for sb in p.blocks[b as usize][idx].op.sub_blocks() {
            licm_block(p, sb, place, changes);
        }
        if let POp::For {
            var, header, body, ..
        } = p.blocks[b as usize][idx].op
        {
            *changes += hoist_loop(p, var, header, body, place);
        }
    }
}

/// Pushes, in program order, the blocks that run exactly once per
/// iteration of a loop whose body is `b`: `b`, the bodies of allocations
/// in it, and the headers of the loops directly in any of those.
fn once_per_iteration(p: &PirProgram, b: BlockId, out: &mut Vec<BlockId>) {
    out.push(b);
    for inst in &p.blocks[b as usize] {
        match inst.op {
            POp::Alloc { body, .. } => once_per_iteration(p, body, out),
            POp::For { header, .. } => out.push(header),
            _ => {}
        }
    }
}

/// Moves every loop-invariant pure, cheap instruction of the blocks that
/// run once per iteration of the loop to the end of `header`, in order.
/// Each moved register stops being loop-variant as it moves, so whole
/// invariant chains move at once. Constants never make their readers
/// variant: a constant a moved instruction reads moves with it. (Pure
/// register arithmetic cannot trap — division by zero is total under
/// Halide semantics — so running it for a zero-iteration loop is harmless.)
///
/// A counted instruction leaving a block leaves a count marker behind and
/// weight 0 on itself: it now executes once per entry of this loop, and
/// the marker keeps the per-iteration total.
fn hoist_loop(
    p: &mut PirProgram,
    var: Reg,
    header: BlockId,
    body: BlockId,
    place: &mut [Place],
) -> u64 {
    let mut sources = Vec::new();
    once_per_iteration(p, body, &mut sources);
    place[var as usize] = Place::Variant;
    for src in &sources {
        for inst in &p.blocks[*src as usize] {
            if let Some(d) = inst.dst {
                place[d as usize] = match inst.op {
                    POp::ConstI(_) | POp::ConstF(_) => Place::Const,
                    _ => Place::Variant,
                };
            }
        }
    }
    // Decide, in program order, so each hoist frees the instructions that
    // read it.
    for src in &sources {
        for inst in &p.blocks[*src as usize] {
            let Some(dst) = inst.dst else { continue };
            if place[dst as usize] != Place::Variant
                || !inst.op.pure_value()
                || !p.cheap_reg(dst, &inst.op)
            {
                continue;
            }
            let mut invariant = true;
            inst.op
                .for_each_operand(|r| invariant &= place[r as usize] != Place::Variant);
            if invariant {
                place[dst as usize] = Place::Hoist;
                inst.op.for_each_operand(|r| {
                    if place[r as usize] == Place::Const {
                        place[r as usize] = Place::Hoist;
                    }
                });
            }
        }
    }
    // Move: constants precede their readers in program order, and every
    // source's hoisted operands come from an earlier source or from
    // earlier in the same one, so appending in order keeps definitions
    // before uses.
    let mut moved = Vec::new();
    for src in &sources {
        let old = std::mem::take(&mut p.blocks[*src as usize]);
        let mut kept = Vec::with_capacity(old.len());
        for mut inst in old {
            let Some(dst) = inst.dst else {
                kept.push(inst);
                continue;
            };
            let hoist = place[dst as usize] == Place::Hoist;
            place[dst as usize] = Place::Outside;
            if hoist {
                if let Some(count) = compensation(&inst) {
                    kept.push(count);
                    inst.weight = 0;
                }
                moved.push(inst);
            } else {
                kept.push(inst);
            }
        }
        p.blocks[*src as usize] = kept;
    }
    place[var as usize] = Place::Outside;
    let n = moved.len() as u64;
    p.blocks[header as usize].extend(moved);
    n
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

/// Value-numbering state: the available values, one table per open scope,
/// and each register's value number (itself, or the earlier register it
/// duplicates).
struct Gvn {
    scopes: Vec<HashMap<Key, Reg>>,
    number: Vec<Reg>,
    changes: u64,
}

fn cse(p: &mut PirProgram) -> u64 {
    let mut gvn = Gvn {
        scopes: vec![HashMap::new()],
        number: (0..p.n_regs).collect(),
        changes: 0,
    };
    cse_block(p, 0, &mut gvn);
    gvn.changes
}

fn cse_block(p: &mut PirProgram, b: BlockId, gvn: &mut Gvn) {
    let old = std::mem::take(&mut p.blocks[b as usize]);
    let mut new: Vec<PInst> = Vec::with_capacity(old.len());
    for mut inst in old {
        match inst.op {
            // A loop header's values are computed before any iteration, so
            // they stay available inside the body; everything defined in
            // either dies with the loop.
            POp::For { header, body, .. } => {
                gvn.scopes.push(HashMap::new());
                cse_block(p, header, gvn);
                gvn.scopes.push(HashMap::new());
                cse_block(p, body, gvn);
                gvn.scopes.truncate(gvn.scopes.len() - 2);
            }
            // Conditional / scoped regions: values computed inside are not
            // available after the region.
            ref op => {
                for sb in op.sub_blocks() {
                    gvn.scopes.push(HashMap::new());
                    cse_block(p, sb, gvn);
                    gvn.scopes.pop();
                }
            }
        }
        // Operands (a region's result registers included, now that its
        // blocks are numbered) read their value numbers.
        inst.op
            .for_each_operand_mut(|r| *r = gvn.number[*r as usize]);
        if let (Some(dst), Some(key)) = (inst.dst, key_of(&inst.op)) {
            if p.cheap_reg(dst, &inst.op) {
                let prev = gvn.scopes.iter().rev().find_map(|s| s.get(&key).copied());
                if let Some(prev) = prev {
                    // Every later read of `dst` becomes a read of `prev`, so
                    // the duplicate goes; the interpreter still evaluates it
                    // at this site, so its count stays.
                    gvn.number[dst as usize] = prev;
                    gvn.changes += 1;
                    new.extend(compensation(&inst));
                    continue;
                }
                gvn.scopes
                    .last_mut()
                    .expect("cse scope stack is never empty")
                    .insert(key, dst);
            }
        }
        new.push(inst);
    }
    p.blocks[b as usize] = new;
}

// ---------------------------------------------------------------------------
// DCE
// ---------------------------------------------------------------------------

fn dce(p: &mut PirProgram) -> u64 {
    let mut uses = p.use_counts();
    let mut changes = 0;
    dce_block(p, 0, &mut uses, &mut changes);
    changes
}

/// Walks block `b` backwards, nested blocks before the instruction that
/// owns them, so every read of a register is seen before its definition:
/// deleting an unread pure instruction releases its operands, and a whole
/// dead chain goes in one walk. Adjacent count markers merge afterwards
/// (cosmetic and idempotent, so not counted as changes).
fn dce_block(p: &mut PirProgram, b: BlockId, uses: &mut [u32], changes: &mut u64) {
    let old = std::mem::take(&mut p.blocks[b as usize]);
    let mut kept: Vec<PInst> = Vec::with_capacity(old.len());
    for inst in old.into_iter().rev() {
        for sb in inst.op.sub_blocks().into_iter().rev() {
            dce_block(p, sb, uses, changes);
        }
        if inst.op.pure_value() && inst.dst.is_some_and(|d| uses[d as usize] == 0) {
            *changes += 1;
            inst.op.for_each_operand(|r| uses[r as usize] -= 1);
            // The interpreter still evaluates the (textually present) dead
            // expression and counts it.
            kept.extend(compensation(&inst));
        } else {
            kept.push(inst);
        }
    }
    let mut new: Vec<PInst> = Vec::with_capacity(kept.len());
    for inst in kept.into_iter().rev() {
        if let POp::Count { arith } = inst.op {
            if let Some(PInst {
                op: POp::Count { arith: prev },
                ..
            }) = new.last_mut()
            {
                *prev += arith;
                continue;
            }
        }
        new.push(inst);
    }
    new.retain(|i| !matches!(i.op, POp::Count { arith: 0 }));
    p.blocks[b as usize] = new;
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
    /// Also checks that one walk of the whole sequence over `s` is a fixed
    /// point.
    fn pir_after(s: &Stmt, pass: Pass) -> String {
        assert_one_walk_is_a_fixed_point(s);
        let mut p = linearize(s).expect("test statement linearizes");
        pass(&mut p);
        p.print()
    }

    /// Optimizes `s`, then walks the result again: the second walk must
    /// change nothing and leave the printed PIR as it was.
    fn assert_one_walk_is_a_fixed_point(s: &Stmt) {
        let mut p = linearize(s).expect("test statement linearizes");
        optimize(&mut p, OptLevel::Default, None);
        let once = p.print();
        let again = optimize(&mut p, OptLevel::Default, None);
        for stat in &again.passes {
            assert_eq!(
                stat.changes, 0,
                "second walk: {} changed\n{once}",
                stat.name
            );
        }
        assert_eq!(p.print(), once, "second walk changed the program");
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
    fn golden_strength_reduce_uses_shifts_and_masks() {
        // i*8 -> shl 3, i/4 -> shr 2, i%8 -> and_mask 7 (floor semantics).
        let i = Expr::var_i32("i");
        let value = (i.clone() * 8 + i.clone() / 4 + i.clone() % 8).cast(Type::f32());
        let actual = pir_after(&store_loop(value, 8), strength_reduce);
        assert_golden(&actual, GOLDEN_STRENGTH_REDUCE, "strength-reduce");
    }

    #[test]
    fn golden_cse_dedupes_pure_subexpressions() {
        // (i*3) + (i*3): the second multiply goes, leaving a count marker
        // for the arithmetic op the interpreter still does, and the add
        // reads the first one twice.
        let i = Expr::var_i32("i");
        let value = (i.clone() * 3 + i.clone() * 3).cast(Type::f32());
        let actual = pir_after(&store_loop(value, 4), cse);
        assert_golden(&actual, GOLDEN_CSE, "cse");
    }

    #[test]
    fn golden_licm_hoists_invariant_arithmetic() {
        // n*n is invariant in i (both operands defined outside the loop):
        // it moves to the loop's header region and its weight drops to 0
        // (executed once per loop entry, counted once per iteration). The
        // cast reading it moves in the same application.
        let n = Expr::var_i32("n");
        let value = (n.clone() * n.clone()).cast(Type::f32());
        let actual = pir_after(&store_loop(value, 4), licm);
        assert_golden(&actual, GOLDEN_LICM, "licm");
    }

    #[test]
    fn golden_licm_moves_invariant_chains_to_the_outermost_header() {
        // for i, j, k: out[k] = f32(n*3 + 5 + k). The chain `n*3 + 5` reads
        // two constants of the innermost body and no loop variable: one
        // application moves it, its constants with it, through all three
        // loops into i's header; only the `+ k` stays behind.
        let k = Expr::var_i32("k");
        let value = (Expr::var_i32("n") * 3 + 5 + k.clone()).cast(Type::f32());
        let nest = ["k", "j", "i"]
            .iter()
            .fold(Stmt::store("out", value, k), |body, v| {
                Stmt::for_loop(*v, Expr::int(0), Expr::int(4), ForKind::Serial, body)
            });
        let actual = pir_after(&nest, licm);
        assert_golden(&actual, GOLDEN_LICM_NEST, "licm (nest)");
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

    // The repeated constant r5 takes r3's value number, so the second
    // multiply reads `mul r2, r3` and dedupes in the same application.
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
    count 1
    r7 = add r4, r4
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
    r5 = cast.float32 r4
  L2:
    count 1
    store b0[r2] = r5
}";

    const GOLDEN_LICM_NEST: &str = "\
pir {
  free r9 = \"n\"
  buf b0 = \"out\" (free)
  L0:
    r0 = const 0
    r1 = const 4
    for r2 in [r0, r0+r1) Serial header L1 body L2
  L1:
    r10 = const 3
    r11 = mul r9, r10 !w0
    r12 = const 5
    r13 = add r11, r12 !w0
  L2:
    r3 = const 0
    r4 = const 4
    for r5 in [r3, r3+r4) Serial header L3 body L4
  L3:
  L4:
    r6 = const 0
    r7 = const 4
    for r8 in [r6, r6+r7) Serial header L5 body L6
  L5:
  L6:
    count 1
    count 1
    r14 = add r13, r8
    r15 = cast.float32 r14
    store b0[r8] = r15
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
        assert_eq!(report.iterations, 1);
        let names: Vec<&str> = report.passes.iter().map(|p| p.name).collect();
        assert_eq!(names, ["strength-reduce", "licm", "cse", "dce"]);
        // Every pass has something to do here: `i*8` shifts, `2*3` hoists,
        // the second `i*8` dedupes, and the constants it read die.
        for stat in &report.passes {
            assert!(stat.changes > 0, "{} reported no changes", stat.name);
        }

        // OptLevel::None is the identity.
        let mut q = linearize(&store_loop((Expr::var_i32("i") * 8).cast(Type::f32()), 8)).unwrap();
        let printed = q.print();
        let report = optimize(&mut q, OptLevel::None, None);
        assert_eq!(report.iterations, 0);
        assert_eq!(report.before_insts, report.after_insts);
        assert!(report.passes.iter().all(|p| p.changes == 0));
        assert_eq!(q.print(), printed);
    }

    /// A lowered two-stage blur, naive and with a tiled, vectorized,
    /// parallel schedule whose producer is allocated per strip: one walk
    /// leaves nothing for a second.
    #[test]
    fn lowered_pipelines_are_a_fixed_point_after_one_walk() {
        use halide_lang::{Func, ImageParam, Pipeline, TailStrategy, Var};
        for tuned in [false, true] {
            let input = ImageParam::new("opt_fp_in", Type::f32(), 2);
            let (x, y) = (Var::new("x"), Var::new("y"));
            let blurx = Func::new("opt_fp_blurx");
            blurx.define(
                &[x.clone(), y.clone()],
                input.at_clamped(vec![x.expr() - 1, y.expr()])
                    + input.at_clamped(vec![x.expr() + 1, y.expr()]),
            );
            let out = Func::new("opt_fp_out");
            out.define(
                &[x.clone(), y.clone()],
                blurx.at(vec![x.expr(), y.expr() - 1]) + blurx.at(vec![x.expr(), y.expr() + 1]),
            );
            if tuned {
                out.split_dim("y", "yo", "yi", 8)
                    .parallelize("yo")
                    .split_dim_tail("x", "xo", "xi", 8, TailStrategy::Predicate)
                    .vectorize_dim("xi");
                blurx.compute_at(&out, "yo");
                blurx.split_dim("x", "bxo", "bxi", 8).vectorize_dim("bxi");
            } else {
                blurx.compute_root();
            }
            let module = halide_lower::lower(&Pipeline::new(&out)).unwrap();
            assert_one_walk_is_a_fixed_point(&module.stmt);
        }
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
        /// and counters, and one walk is a fixed point. The constants are
        /// chosen to tickle every pass — pow2 and non-pow2 divisors,
        /// constant subtrees, repeated subexpressions, loop-invariant terms.
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
                // floor div/mod by drawn divisor (strength-reduce)
                1 => i.clone() / ci.clone() + i.clone() % ci.clone() + ai.clone(),
                // loop-invariant term (licm) over a free scalar
                2 => nv.clone() * bi.clone() + i.clone(),
                // integer identities around a live core
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
            let s = store_loop(value, 8);
            assert_levels_agree(&s, 8, Some(n));
            assert_one_walk_is_a_fixed_point(&s);
        }
    }
}
