//! The emit layer: translates optimized [`crate::pir::PirProgram`]s into
//! the [`crate::machine`] instruction set (`CStmt`/`CExpr` trees).
//!
//! Emission is the inverse of linearization wherever that is profitable:
//! a register defined once and read once *in the same block* is fused back
//! into its consumer's expression tree, so the machine never materializes it
//! in a frame slot. Everything else — multi-use registers, registers read
//! from a nested block, and loads still pending when an effectful statement
//! could clobber their buffer — is emitted as an explicit
//! [`CStmt::SetSlot`]. PIR registers map one-to-one onto machine frame
//! slots, so no renumbering happens here.
//!
//! Counter exactness: a counted instruction whose `weight` is not 1 (LICM
//! sets hoisted instructions to 0) emits alongside a compensating
//! [`CStmt::Count`] / [`CExpr::Count`], and [`crate::pir::POp::Count`]
//! markers translate directly — the machine's dynamic arithmetic counter
//! stays bit-identical to the interpreter's.
//!
//! This boundary is deliberately thin: a future native backend replaces
//! this module (PIR in, machine code out) without touching linearization or
//! the optimizer.

use std::collections::HashMap;

use crate::compile::{CExpr, CStmt};
use crate::error::{ExecError, Result};
use crate::pir::{BlockId, PInst, POp, PirProgram, Reg};

/// Translates an (optimized) PIR program into a machine statement tree.
pub(crate) fn emit(p: &PirProgram) -> Result<CStmt> {
    let em = Emitter {
        p,
        uses: analyze_uses(p),
    };
    if p.blocks.is_empty() {
        return Ok(CStmt::NoOp);
    }
    em.block_stmt(0)
}

/// The index `ramp(base, 1, lanes)` of a PIR dense load or store.
fn dense_index(base: CExpr, lanes: u16) -> CExpr {
    CExpr::Ramp {
        base: Box::new(base),
        stride: Box::new(CExpr::ConstI(1)),
        lanes,
    }
}

/// Where a register's reads happen, for the fusion decision.
#[derive(Clone, Copy, Default)]
struct UseInfo {
    count: u32,
    /// Block of the most recent recorded read. Only meaningful when
    /// `count == 1`.
    block: BlockId,
}

/// Counts reads per register, attributing a region's result-register reads
/// (`rhs_val`, `t_val`, `f_val`) to the *arm block* — that is where the
/// value is consumed at run time, and attributing them there keeps a
/// parent-block definition from fusing into a conditionally-evaluated arm.
fn analyze_uses(p: &PirProgram) -> Vec<UseInfo> {
    let mut uses = vec![UseInfo::default(); p.n_regs as usize];
    let record = |r: Reg, b: BlockId, uses: &mut Vec<UseInfo>| {
        let u = &mut uses[r as usize];
        u.count += 1;
        u.block = b;
    };
    for b in p.reachable() {
        for inst in &p.blocks[b as usize] {
            match &inst.op {
                POp::And { a, rhs, rhs_val } | POp::Or { a, rhs, rhs_val } => {
                    record(*a, b, &mut uses);
                    record(*rhs_val, *rhs, &mut uses);
                }
                POp::Select {
                    cond,
                    t,
                    t_val,
                    f,
                    f_val,
                } => {
                    record(*cond, b, &mut uses);
                    record(*t_val, *t, &mut uses);
                    record(*f_val, *f, &mut uses);
                }
                op => op.for_each_operand(|r| record(r, b, &mut uses)),
            }
        }
    }
    uses
}

/// An expression built for a not-yet-consumed single-use definition.
struct Pending {
    expr: CExpr,
    /// True when the expression (or anything fused into it) touches buffer
    /// memory — such pendings must flush before a statement that could
    /// write memory.
    loads: bool,
}

/// Per-block fusion state: definitions awaiting their single consumer, in
/// definition order.
#[derive(Default)]
struct BlockCx {
    pending: HashMap<Reg, Pending>,
    order: Vec<Reg>,
}

impl BlockCx {
    fn insert(&mut self, r: Reg, expr: CExpr, loads: bool) {
        self.pending.insert(r, Pending { expr, loads });
        self.order.push(r);
    }

    /// Consumes the pending expression for `r`, or reads its slot.
    fn take(&mut self, r: Reg) -> (CExpr, bool) {
        match self.pending.remove(&r) {
            Some(pend) => (pend.expr, pend.loads),
            None => (CExpr::Slot(r), false),
        }
    }

    /// Removes and returns, in definition order, every pending whose
    /// expression touches memory (`all` = every pending regardless).
    fn drain(&mut self, all: bool) -> Vec<(Reg, CExpr)> {
        let mut out = Vec::new();
        let order = std::mem::take(&mut self.order);
        for r in order {
            let loadish = self.pending.get(&r).map(|pend| pend.loads);
            match loadish {
                Some(l) if all || l => {
                    let pend = self.pending.remove(&r).unwrap();
                    out.push((r, pend.expr));
                }
                Some(_) => self.order.push(r),
                None => {} // already consumed
            }
        }
        out
    }
}

struct Emitter<'a> {
    p: &'a PirProgram,
    uses: Vec<UseInfo>,
}

impl Emitter<'_> {
    /// True when `inst`'s value can fuse into its consumer: exactly one
    /// read, in the defining block, and no counter compensation rides on
    /// the instruction (a weight-0 hoisted op must emit at its own site so
    /// the adjacent `Count` stays exact).
    fn fusable(&self, inst: &PInst, dst: Reg, b: BlockId) -> bool {
        let u = self.uses[dst as usize];
        u.count == 1 && u.block == b && !(inst.op.counted() && inst.weight != 1)
    }

    /// Builds the machine expression for a value instruction, consuming any
    /// pending operands. Returns the expression and whether it (or anything
    /// fused into it) touches buffer memory.
    fn value_expr(&self, inst: &PInst, cx: &mut BlockCx) -> Result<(CExpr, bool)> {
        let bx = Box::new;
        Ok(match &inst.op {
            POp::ConstI(v) => (CExpr::ConstI(*v), false),
            POp::ConstF(v) => (CExpr::ConstF(*v), false),
            POp::Cast { ty, a } => {
                let (e, l) = cx.take(*a);
                (
                    CExpr::Cast {
                        ty: *ty,
                        value: bx(e),
                    },
                    l,
                )
            }
            POp::Bin { op, a, b } => {
                let (ea, la) = cx.take(*a);
                let (eb, lb) = cx.take(*b);
                (
                    CExpr::Bin {
                        op: *op,
                        a: bx(ea),
                        b: bx(eb),
                    },
                    la || lb,
                )
            }
            POp::Cmp { op, a, b } => {
                let (ea, la) = cx.take(*a);
                let (eb, lb) = cx.take(*b);
                (
                    CExpr::Cmp {
                        op: *op,
                        a: bx(ea),
                        b: bx(eb),
                    },
                    la || lb,
                )
            }
            POp::Not { a } => {
                let (e, l) = cx.take(*a);
                (CExpr::Not { a: bx(e) }, l)
            }
            POp::Shl { a, bits } => {
                let (e, l) = cx.take(*a);
                (
                    CExpr::Shl {
                        a: bx(e),
                        bits: *bits,
                    },
                    l,
                )
            }
            POp::Shr { a, bits } => {
                let (e, l) = cx.take(*a);
                (
                    CExpr::Shr {
                        a: bx(e),
                        bits: *bits,
                    },
                    l,
                )
            }
            POp::AndMask { a, mask } => {
                let (e, l) = cx.take(*a);
                (
                    CExpr::AndMask {
                        a: bx(e),
                        mask: *mask,
                    },
                    l,
                )
            }
            POp::Ramp {
                base,
                stride,
                lanes,
            } => {
                let (eb, lb) = cx.take(*base);
                let (es, ls) = cx.take(*stride);
                (
                    CExpr::Ramp {
                        base: bx(eb),
                        stride: bx(es),
                        lanes: *lanes,
                    },
                    lb || ls,
                )
            }
            POp::Broadcast { a, lanes } => {
                let (e, l) = cx.take(*a);
                (
                    CExpr::Broadcast {
                        value: bx(e),
                        lanes: *lanes,
                    },
                    l,
                )
            }
            POp::And { a, rhs, rhs_val } => {
                let (ea, la) = cx.take(*a);
                let (eb, lb) = self.arm(*rhs, *rhs_val)?;
                (
                    CExpr::And {
                        a: bx(ea),
                        b: bx(eb),
                    },
                    la || lb,
                )
            }
            POp::Or { a, rhs, rhs_val } => {
                let (ea, la) = cx.take(*a);
                let (eb, lb) = self.arm(*rhs, *rhs_val)?;
                (
                    CExpr::Or {
                        a: bx(ea),
                        b: bx(eb),
                    },
                    la || lb,
                )
            }
            POp::Select {
                cond,
                t,
                t_val,
                f,
                f_val,
            } => {
                let (ec, lc) = cx.take(*cond);
                let (et, lt) = self.arm(*t, *t_val)?;
                let (ef, lf) = self.arm(*f, *f_val)?;
                (
                    CExpr::Select {
                        cond: bx(ec),
                        t: bx(et),
                        f: bx(ef),
                    },
                    lc || lt || lf,
                )
            }
            POp::Load { buf, index } => {
                let (e, _) = cx.take(*index);
                (
                    CExpr::Load {
                        buf: *buf,
                        index: bx(e),
                    },
                    true,
                )
            }
            // The machine has one load: a dense load is a load through
            // `ramp(base, 1, lanes)`, which it evaluates to a symbolic ramp.
            POp::LoadDense { buf, base, lanes } => {
                let (e, _) = cx.take(*base);
                (
                    CExpr::Load {
                        buf: *buf,
                        index: bx(dense_index(e, *lanes)),
                    },
                    true,
                )
            }
            POp::LoadClamped { buf, index, lo, hi } => {
                let (ei, _) = cx.take(*index);
                let (elo, _) = cx.take(*lo);
                let (ehi, _) = cx.take(*hi);
                (
                    CExpr::LoadClamped {
                        buf: *buf,
                        index: bx(ei),
                        lo: bx(elo),
                        hi: bx(ehi),
                    },
                    true,
                )
            }
            POp::LoadMasked { buf, index, mask } => {
                let (ei, _) = cx.take(*index);
                let (em, _) = cx.take(*mask);
                (
                    CExpr::LoadMasked {
                        buf: *buf,
                        index: bx(ei),
                        mask: bx(em),
                    },
                    true,
                )
            }
            POp::Intrinsic { f, args, .. } => {
                let mut loads = false;
                let mut es = Vec::with_capacity(args.len());
                for a in args {
                    let (e, l) = cx.take(*a);
                    loads |= l;
                    es.push(e);
                }
                (CExpr::Intrinsic { f: *f, args: es }, loads)
            }
            other => {
                return Err(ExecError::new(format!(
                    "internal error: effect operation {other:?} in value position"
                )))
            }
        })
    }

    /// Emits a lazily-evaluated arm block as a single expression: non-fused
    /// definitions become `Let` wrappers, counter markers become `Count`
    /// wrappers, and the block's result register closes the chain. Returns
    /// the expression and whether anything inside touches memory.
    fn arm(&self, b: BlockId, val: Reg) -> Result<(CExpr, bool)> {
        enum Wrap {
            Let(Reg, CExpr),
            Count(i64),
        }
        let mut wraps: Vec<Wrap> = Vec::new();
        let mut cx = BlockCx::default();
        let mut any_loads = false;
        for inst in &self.p.blocks[b as usize] {
            if let POp::Count { arith } = inst.op {
                wraps.push(Wrap::Count(arith));
                continue;
            }
            let Some(dst) = inst.dst else {
                return Err(ExecError::new(format!(
                    "internal error: effect operation {:?} in an expression block",
                    inst.op
                )));
            };
            let (expr, loads) = self.value_expr(inst, &mut cx)?;
            any_loads |= loads;
            if self.fusable(inst, dst, b) {
                cx.insert(dst, expr, loads);
            } else {
                wraps.push(Wrap::Let(dst, expr));
                if inst.op.counted() && inst.weight != 1 {
                    wraps.push(Wrap::Count(inst.weight as i64 - 1));
                }
            }
        }
        let (mut result, l) = cx.take(val);
        any_loads |= l;
        // Anything still pending was never consumed (a zero-use definition
        // that must still evaluate, e.g. an unused load): bind it too.
        let stranded = cx.drain(true);
        for (r, e) in stranded.into_iter().rev() {
            result = CExpr::Let {
                slot: r,
                value: Box::new(e),
                body: Box::new(result),
            };
        }
        for w in wraps.into_iter().rev() {
            result = match w {
                Wrap::Let(slot, value) => CExpr::Let {
                    slot,
                    value: Box::new(value),
                    body: Box::new(result),
                },
                Wrap::Count(arith) => CExpr::Count {
                    arith,
                    inner: Box::new(result),
                },
            };
        }
        Ok((result, any_loads))
    }

    /// Emits a statement block, fusing single-use definitions into their
    /// consumers and flushing memory-touching pendings before any statement
    /// that could write memory.
    fn block_stmts(&self, b: BlockId) -> Result<Vec<CStmt>> {
        let mut out: Vec<CStmt> = Vec::new();
        let mut cx = BlockCx::default();
        // Produce markers are paired and well-nested within a block (the
        // linearizer emits both sides into the same block), so nesting is
        // rebuilt with a stack of output lists: `ProduceEnter` starts a
        // fresh list, `ProduceExit` wraps it into a `CStmt::Produce` and
        // resumes the enclosing one.
        let mut produce_stack: Vec<(u32, Vec<CStmt>)> = Vec::new();
        let flush = |cx: &mut BlockCx, out: &mut Vec<CStmt>, all: bool| {
            for (r, e) in cx.drain(all) {
                out.push(CStmt::SetSlot { slot: r, value: e });
            }
        };
        for inst in &self.p.blocks[b as usize] {
            match &inst.op {
                POp::Count { arith } => out.push(CStmt::Count { arith: *arith }),
                POp::ProduceEnter { func } => {
                    produce_stack.push((*func, std::mem::take(&mut out)));
                }
                POp::ProduceExit => {
                    let Some((func, outer)) = produce_stack.pop() else {
                        return Err(ExecError::new(
                            "internal error: unbalanced produce markers".to_string(),
                        ));
                    };
                    let body_stmts = std::mem::replace(&mut out, outer);
                    // An empty nest still emits: the profiler's invocation
                    // counts must match the interpreter's exactly.
                    let body = match body_stmts.len() {
                        0 => CStmt::NoOp,
                        1 => body_stmts.into_iter().next().unwrap(),
                        _ => CStmt::Block(body_stmts),
                    };
                    out.push(CStmt::Produce {
                        func,
                        body: Box::new(body),
                    });
                }
                POp::Store { buf, value, index } => {
                    let (val, _) = cx.take(*value);
                    let (idx, _) = cx.take(*index);
                    flush(&mut cx, &mut out, false);
                    out.push(CStmt::Store {
                        buf: *buf,
                        value: val,
                        index: idx,
                    });
                }
                POp::StoreDense {
                    buf,
                    value,
                    base,
                    lanes,
                } => {
                    let (val, _) = cx.take(*value);
                    let (base_e, _) = cx.take(*base);
                    flush(&mut cx, &mut out, false);
                    out.push(CStmt::Store {
                        buf: *buf,
                        value: val,
                        index: dense_index(base_e, *lanes),
                    });
                }
                POp::StoreMasked {
                    buf,
                    value,
                    index,
                    mask,
                } => {
                    let (val, _) = cx.take(*value);
                    let (idx, _) = cx.take(*index);
                    let (m, _) = cx.take(*mask);
                    flush(&mut cx, &mut out, false);
                    out.push(CStmt::StoreMasked {
                        buf: *buf,
                        value: val,
                        index: idx,
                        mask: m,
                    });
                }
                POp::Assert { cond, message } => {
                    let (c, _) = cx.take(*cond);
                    flush(&mut cx, &mut out, false);
                    out.push(CStmt::Assert {
                        cond: c,
                        message: message.clone(),
                    });
                }
                POp::For {
                    var,
                    min,
                    extent,
                    kind,
                    header,
                    body,
                } => {
                    let (min_e, _) = cx.take(*min);
                    let (ext_e, _) = cx.take(*extent);
                    flush(&mut cx, &mut out, false);
                    out.push(CStmt::For {
                        slot: *var,
                        min: min_e,
                        extent: ext_e,
                        kind: *kind,
                        hoisted: self.block_stmts(*header)?,
                        body: Box::new(self.block_stmt(*body)?),
                    });
                }
                POp::Alloc {
                    buf,
                    ty,
                    size,
                    body,
                } => {
                    let (size_e, _) = cx.take(*size);
                    flush(&mut cx, &mut out, false);
                    out.push(CStmt::Allocate {
                        buf: *buf,
                        ty: *ty,
                        size: size_e,
                        body: Box::new(self.block_stmt(*body)?),
                    });
                }
                POp::If {
                    cond,
                    then_b,
                    else_b,
                } => {
                    let (c, _) = cx.take(*cond);
                    flush(&mut cx, &mut out, false);
                    out.push(CStmt::If {
                        cond: c,
                        then_case: Box::new(self.block_stmt(*then_b)?),
                        else_case: match else_b {
                            Some(e) => Some(Box::new(self.block_stmt(*e)?)),
                            None => None,
                        },
                    });
                }
                POp::Evaluate { a } => {
                    let (e, _) = cx.take(*a);
                    out.push(CStmt::Evaluate(e));
                }
                _ => {
                    let Some(dst) = inst.dst else {
                        return Err(ExecError::new(format!(
                            "internal error: value operation {:?} without a destination",
                            inst.op
                        )));
                    };
                    let (expr, loads) = self.value_expr(inst, &mut cx)?;
                    if self.fusable(inst, dst, b) {
                        cx.insert(dst, expr, loads);
                    } else {
                        out.push(CStmt::SetSlot {
                            slot: dst,
                            value: expr,
                        });
                        if inst.op.counted() && inst.weight != 1 {
                            out.push(CStmt::Count {
                                arith: inst.weight as i64 - 1,
                            });
                        }
                    }
                }
            }
        }
        if !produce_stack.is_empty() {
            return Err(ExecError::new(
                "internal error: produce marker left open at block end".to_string(),
            ));
        }
        // Anything still pending (a zero-use pure definition the optimizer
        // did not run over) must still evaluate, in definition order.
        flush(&mut cx, &mut out, true);
        Ok(out)
    }

    /// Emits a block as one statement node.
    fn block_stmt(&self, b: BlockId) -> Result<CStmt> {
        let mut stmts = self.block_stmts(b)?;
        Ok(match stmts.len() {
            0 => CStmt::NoOp,
            1 => stmts.pop().unwrap(),
            _ => CStmt::Block(stmts),
        })
    }
}
