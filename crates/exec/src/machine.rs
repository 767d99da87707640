//! The register machine: executes a compiled [`Program`].
//!
//! A `Machine` is the per-thread execution state: a flat register file of
//! `CValue`s (unboxed scalars, boxed vectors) indexed by the slots the
//! compile pass assigned, plus a buffer table of `Arc<Buffer>`s indexed the
//! same way. Parallel loops clone the machine **once per chunk of
//! iterations** (not once per iteration): every binder writes its slot
//! before the slot is read, so a machine can be reused serially across
//! iterations — only concurrent use needs a copy.
//!
//! Every operation is defined to match the interpreter in
//! [`crate::eval`] bit-for-bit — same value promotion, same short-circuit
//! and taken-branch evaluation, same instrumentation counters — so the two
//! backends are interchangeable and differential-testable. The wall-clock
//! difference comes purely from resolution work moved to compile time,
//! unboxed scalar arithmetic, vector loads/stores that read their lanes
//! straight from a symbolic ramp instead of a materialized index vector,
//! lane loops with no per-lane dispatch, and vector storage recycled
//! through a per-thread free list instead of the heap.

use std::sync::Arc;

use halide_ir::ForKind;
use halide_runtime::{
    abs_owned, binary_op_owned, boxed, cast_owned, compare_op_owned, float_lanes, float_splat,
    int_lanes, int_splat, map_f64_owned, not_op_owned, recycle, recycle_box, scalar_binary_op,
    scalar_compare_op, select_op_owned, zip_f64_owned, AccessPattern, Buffer, Lanes, Scalar, Value,
};

use crate::compile::{CExpr, CIntrinsic, CStmt, Program};
use crate::error::{ExecError, Result};
use crate::eval::Context;

/// A register value: an unboxed scalar on the hot path, a boxed vector only
/// inside vectorized regions. Boxing the vector variant keeps the enum at 24
/// bytes (see `register_stays_24_bytes`), so moving scalars through
/// evaluation stays cheap; the boxes and their lanes are recycled (see
/// [`VReg`]).
///
/// The `R` variant is a **symbolic integer ramp** `[base, base + stride, …)`:
/// the affine index vectors vectorization emits stay unmaterialized through
/// `let` bindings and through `+`/`-`/`*`-by-scalar arithmetic (exact in the
/// mod-2⁶⁴ integer ring, so the eventual lanes are bit-identical to the
/// interpreter's), and a ramp index hands its lanes to the buffer's bulk
/// read/write without ever building an index vector.
#[derive(Debug, Clone)]
pub(crate) enum CValue {
    /// One unboxed lane.
    S(Scalar),
    /// A symbolic integer affine vector (never materialized until needed).
    R { base: i64, stride: i64, lanes: u16 },
    /// Multiple lanes (or a one-lane vector produced by vector ops).
    V(VReg),
}

/// A vector register's storage: a boxed [`Value`] whose box and lanes go
/// back to this thread's free list when the register is dropped or
/// consumed, so a warm vector loop makes no heap allocation. Copies (slot
/// reads, machine copies for parallel tasks) fill recycled storage too.
pub(crate) struct VReg(Option<Box<Value>>);

impl VReg {
    #[inline]
    fn new(v: Value) -> VReg {
        VReg(Some(boxed(v)))
    }

    #[inline]
    fn get(&self) -> &Value {
        self.0
            .as_deref()
            .expect("a vector register holds its box until dropped")
    }

    #[inline]
    fn get_mut(&mut self) -> &mut Value {
        self.0
            .as_deref_mut()
            .expect("a vector register holds its box until dropped")
    }

    /// The lanes, leaving the box empty: for a result to be put in, or to
    /// go back to the free list when the register drops.
    #[inline]
    fn take_lanes(&mut self) -> Value {
        std::mem::replace(self.get_mut(), Value::Int(Vec::new()))
    }
}

impl Drop for VReg {
    fn drop(&mut self) {
        if let Some(b) = self.0.take() {
            recycle_box(b);
        }
    }
}

impl Clone for VReg {
    fn clone(&self) -> VReg {
        VReg::new(self.get().pooled_copy())
    }
}

impl std::fmt::Debug for VReg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.get().fmt(f)
    }
}

/// Wraps a vector result. Always inlined: an out-of-line call here costs
/// every arm of [`eval`].
#[inline(always)]
fn vv(v: Value) -> CValue {
    CValue::V(VReg::new(v))
}

/// `f` over an operand's lanes, the result in the operand's own box when it
/// is a vector register (no free-list traffic for the box).
#[inline(always)]
fn vec1(a: CValue, f: impl FnOnce(Value) -> Value) -> CValue {
    match a {
        CValue::V(mut r) => {
            let v = f(r.take_lanes());
            *r.get_mut() = v;
            CValue::V(r)
        }
        a => vv(f(a.into_value())),
    }
}

/// `f` over two operands' lanes, the result in the box of the first one
/// that is a vector register (see [`vec1`]).
#[inline(always)]
fn vec2(a: CValue, b: CValue, f: impl FnOnce(Value, Value) -> Value) -> CValue {
    match (a, b) {
        (CValue::V(mut r), b) => {
            let v = f(r.take_lanes(), b.into_value());
            *r.get_mut() = v;
            CValue::V(r)
        }
        (a, CValue::V(mut r)) => {
            let v = f(a.into_value(), r.take_lanes());
            *r.get_mut() = v;
            CValue::V(r)
        }
        (a, b) => vv(f(a.into_value(), b.into_value())),
    }
}

impl CValue {
    #[inline]
    fn lanes(&self) -> usize {
        match self {
            CValue::S(_) => 1,
            CValue::R { lanes, .. } => *lanes as usize,
            CValue::V(v) => v.get().lanes(),
        }
    }

    /// Converts to the interpreter's representation, consuming self (no
    /// copy for the vector variant; scalars and ramps fill storage from the
    /// free list, ramps lane by lane through [`ramp_lane`]).
    #[inline]
    fn into_value(self) -> Value {
        match self {
            CValue::S(Scalar::Int(v)) => int_splat(v, 1),
            CValue::S(Scalar::Float(v)) => float_splat(v, 1),
            CValue::R {
                base,
                stride,
                lanes,
            } => {
                let mut v = int_lanes(lanes as usize);
                v.extend((0..lanes as i64).map(|k| ramp_lane(base, stride, k)));
                Value::Int(v)
            }
            CValue::V(mut v) => v.take_lanes(),
        }
    }

    /// The value as a boolean, matching `Value::as_bool` (panics there, an
    /// error here).
    #[inline]
    fn as_bool(&self) -> Result<bool> {
        match self {
            CValue::S(s) => Ok(s.as_bool()),
            CValue::R { base, lanes: 1, .. } => Ok(*base != 0),
            CValue::V(v) if v.get().lanes() == 1 => Ok(v.get().lane_f64(0) != 0.0),
            other => Err(ExecError::new(format!(
                "expected a scalar condition, got a {}-lane vector",
                other.lanes()
            ))),
        }
    }

    /// The value as a loop bound / size, matching `Value::as_int`.
    #[inline]
    fn as_int(&self) -> Result<i64> {
        match self {
            CValue::S(Scalar::Int(v)) => Ok(*v),
            CValue::R { base, lanes: 1, .. } => Ok(*base),
            CValue::V(v) => match v.get() {
                Value::Int(v) if v.len() == 1 => Ok(v[0]),
                other => Err(ExecError::new(format!(
                    "expected a scalar integer, got {other:?}"
                ))),
            },
            other => Err(ExecError::new(format!(
                "expected a scalar integer, got {other:?}"
            ))),
        }
    }

    /// True for the float kind (either representation).
    #[inline]
    fn is_float_kind(&self) -> bool {
        match self {
            CValue::S(s) => s.is_float(),
            CValue::R { .. } => false,
            CValue::V(v) => matches!(v.get(), Value::Float(_)),
        }
    }
}

/// Lane `k` of a symbolic ramp: the interpreter's `base + stride * k`,
/// computed in the mod-2⁶⁴ ring the symbolic arithmetic works in, so a ramp
/// whose base that arithmetic wrapped materializes exactly the lanes the
/// interpreter's wrapping lane-wise ops produced.
#[inline(always)]
fn ramp_lane(base: i64, stride: i64, k: i64) -> i64 {
    base.wrapping_add(stride.wrapping_mul(k))
}

/// Symbolic ramp arithmetic: `ramp op scalar` (or scalar op ramp, or
/// ramp op ramp) without materializing lanes, for the operations where the
/// result is again an affine ramp with **bit-identical** lanes (integer
/// `+`/`-`/`*` distribute over the lane formula in the mod-2⁶⁴ ring, and
/// see [`ramp_clamp`] for `min`/`max`).
#[inline]
fn ramp_bin(op: halide_ir::BinOp, a: &CValue, b: &CValue) -> Option<CValue> {
    use halide_ir::BinOp;
    if matches!(op, BinOp::Min | BinOp::Max) {
        return ramp_clamp(op, a, b);
    }
    if !matches!(op, BinOp::Add | BinOp::Sub | BinOp::Mul) {
        return None;
    }
    match (a, b) {
        (
            CValue::R {
                base,
                stride,
                lanes,
            },
            CValue::S(Scalar::Int(c)),
        ) => Some(match op {
            BinOp::Add => CValue::R {
                base: base.wrapping_add(*c),
                stride: *stride,
                lanes: *lanes,
            },
            BinOp::Sub => CValue::R {
                base: base.wrapping_sub(*c),
                stride: *stride,
                lanes: *lanes,
            },
            BinOp::Mul => CValue::R {
                base: base.wrapping_mul(*c),
                stride: stride.wrapping_mul(*c),
                lanes: *lanes,
            },
            _ => unreachable!(),
        }),
        (
            CValue::S(Scalar::Int(c)),
            CValue::R {
                base,
                stride,
                lanes,
            },
        ) => Some(match op {
            BinOp::Add => CValue::R {
                base: c.wrapping_add(*base),
                stride: *stride,
                lanes: *lanes,
            },
            BinOp::Sub => CValue::R {
                base: c.wrapping_sub(*base),
                stride: stride.wrapping_neg(),
                lanes: *lanes,
            },
            BinOp::Mul => CValue::R {
                base: c.wrapping_mul(*base),
                stride: c.wrapping_mul(*stride),
                lanes: *lanes,
            },
            _ => unreachable!(),
        }),
        (
            CValue::R {
                base: b1,
                stride: s1,
                lanes: l1,
            },
            CValue::R {
                base: b2,
                stride: s2,
                lanes: l2,
            },
        ) if l1 == l2 && matches!(op, BinOp::Add | BinOp::Sub) => Some(match op {
            BinOp::Add => CValue::R {
                base: b1.wrapping_add(*b2),
                stride: s1.wrapping_add(*s2),
                lanes: *l1,
            },
            BinOp::Sub => CValue::R {
                base: b1.wrapping_sub(*b2),
                stride: s1.wrapping_sub(*s2),
                lanes: *l1,
            },
            _ => unreachable!(),
        }),
        _ => None,
    }
}

/// `min`/`max` of a ramp and an integer scalar (in either order) as a ramp,
/// where the result is one: the ramp itself when every lane is on the kept
/// side of the scalar, the stride-0 ramp of the scalar when every lane is on
/// the other side. A ramp straddling the scalar materializes (`None`), and
/// so does one whose last lane overflows — only without overflow are the
/// first and last lanes the extremes of the interpreter's lanes.
fn ramp_clamp(op: halide_ir::BinOp, a: &CValue, b: &CValue) -> Option<CValue> {
    let (base, stride, lanes, c) = match (a, b) {
        (
            CValue::R {
                base,
                stride,
                lanes,
            },
            CValue::S(Scalar::Int(c)),
        )
        | (
            CValue::S(Scalar::Int(c)),
            CValue::R {
                base,
                stride,
                lanes,
            },
        ) => (*base, *stride, *lanes, *c),
        _ => return None,
    };
    let last = stride
        .checked_mul(i64::from(lanes) - 1)?
        .checked_add(base)?;
    let (lo, hi) = (base.min(last), base.max(last));
    let (keep_ramp, all_c) = match op {
        halide_ir::BinOp::Min => (hi <= c, lo >= c),
        _ => (lo >= c, hi <= c),
    };
    if keep_ramp {
        Some(CValue::R {
            base,
            stride,
            lanes,
        })
    } else if all_c {
        Some(CValue::R {
            base: c,
            stride: 0,
            lanes,
        })
    } else {
        None
    }
}

/// The access pattern of a load through `idx`, by the classification rule
/// shared with the interpreter ([`halide_runtime::classify_flat_indices`]).
/// Symbolic ramps classify without materializing — by construction a ramp's
/// lanes have the constant lane-to-lane delta `stride`, so the result is the
/// same one the interpreter computes from the materialized lanes.
fn classify_load_index(idx: &CValue) -> AccessPattern {
    match idx {
        CValue::S(_) => AccessPattern::Scalar,
        CValue::R { stride, lanes, .. } => {
            if *lanes <= 1 {
                AccessPattern::Scalar
            } else if *stride == 1 {
                AccessPattern::Dense
            } else {
                AccessPattern::Strided
            }
        }
        CValue::V(v) => match v.get() {
            Value::Int(idx) => halide_runtime::classify_flat_indices(idx),
            other => halide_runtime::classify_flat_indices(&other.to_int_lanes()),
        },
    }
}

/// The access pattern of a store through `idx`, widened to `lanes` the way
/// the interpreter widens it (`idx.broadcast(lanes)` before the lane loop):
/// an index narrower than the store repeats its first lane, which makes the
/// deltas zero — a stride-0 strided store, never a dense one.
fn classify_store_index(idx: &CValue, lanes: usize) -> AccessPattern {
    if lanes <= 1 {
        return AccessPattern::Scalar;
    }
    if idx.lanes() != lanes {
        return AccessPattern::Strided; // broadcast of the first lane
    }
    classify_load_index(idx)
}

/// Per-thread execution state for a compiled program.
#[derive(Clone)]
pub(crate) struct Machine {
    pub(crate) regs: Vec<CValue>,
    pub(crate) bufs: Vec<Option<Arc<Buffer>>>,
}

impl Machine {
    /// A machine with all registers zeroed and no buffers bound.
    pub(crate) fn new(prog: &Program) -> Machine {
        Machine {
            regs: vec![CValue::S(Scalar::Int(0)); prog.n_slots],
            bufs: vec![None; prog.n_bufs],
        }
    }

    /// Writes a register (used by the realizer to bind free symbols).
    pub(crate) fn set_reg(&mut self, slot: u32, v: Scalar) {
        self.regs[slot as usize] = CValue::S(v);
    }

    /// Binds a buffer index (used by the realizer to bind free buffers).
    pub(crate) fn set_buf(&mut self, idx: u32, buf: Arc<Buffer>) {
        self.bufs[idx as usize] = Some(buf);
    }

    #[inline]
    fn buffer(&self, prog: &Program, idx: u32) -> Result<&Arc<Buffer>> {
        self.bufs[idx as usize].as_ref().ok_or_else(|| {
            ExecError::new(format!(
                "no buffer named {:?} is in scope",
                prog.buf_names[idx as usize]
            ))
        })
    }
}

/// Evaluates a compiled expression.
pub(crate) fn eval(prog: &Program, e: &CExpr, m: &mut Machine, ctx: &Context) -> Result<CValue> {
    match e {
        CExpr::ConstI(v) => Ok(CValue::S(Scalar::Int(*v))),
        CExpr::ConstF(v) => Ok(CValue::S(Scalar::Float(*v))),
        CExpr::Slot(slot) => Ok(m.regs[*slot as usize].clone()),
        CExpr::Cast { ty, value } => Ok(match eval(prog, value, m, ctx)? {
            CValue::S(s) => CValue::S(s.cast_to(*ty)),
            other => vec1(other, |v| cast_owned(v, *ty)),
        }),
        CExpr::Bin { op, a, b } => {
            let va = eval(prog, a, m, ctx)?;
            let vb = eval(prog, b, m, ctx)?;
            if ctx.instrument {
                ctx.counters.add_arith(1);
            }
            Ok(match (va, vb) {
                (CValue::S(x), CValue::S(y)) => CValue::S(scalar_binary_op(*op, x, y)),
                (va, vb) => match ramp_bin(*op, &va, &vb) {
                    Some(r) => r,
                    None => vec2(va, vb, |x, y| binary_op_owned(*op, x, y)),
                },
            })
        }
        CExpr::Cmp { op, a, b } => {
            let va = eval(prog, a, m, ctx)?;
            let vb = eval(prog, b, m, ctx)?;
            if ctx.instrument {
                ctx.counters.add_arith(1);
            }
            Ok(match (va, vb) {
                (CValue::S(x), CValue::S(y)) => CValue::S(scalar_compare_op(*op, x, y)),
                (va, vb) => vec2(va, vb, |x, y| compare_op_owned(*op, x, y)),
            })
        }
        CExpr::And { a, b } => {
            let va = eval(prog, a, m, ctx)?;
            if va.lanes() == 1 && !va.as_bool()? {
                return Ok(CValue::S(Scalar::Int(0)));
            }
            let vb = eval(prog, b, m, ctx)?;
            if va.lanes() == 1 {
                // select(true-scalar, b, false) is exactly b.
                return Ok(vb);
            }
            Ok(vec2(va, vb, |c, b| {
                let r = select_op_owned(&c, b, int_splat(0, 1));
                recycle(c);
                r
            }))
        }
        CExpr::Or { a, b } => {
            let va = eval(prog, a, m, ctx)?;
            if va.lanes() == 1 && va.as_bool()? {
                return Ok(CValue::S(Scalar::Int(1)));
            }
            let vb = eval(prog, b, m, ctx)?;
            if va.lanes() == 1 {
                // select(false-scalar, true, b) is exactly b.
                return Ok(vb);
            }
            Ok(vec2(va, vb, |c, b| {
                let r = select_op_owned(&c, int_splat(1, 1), b);
                recycle(c);
                r
            }))
        }
        CExpr::Not { a } => Ok(match eval(prog, a, m, ctx)? {
            CValue::S(s) => CValue::S(Scalar::Int((s.as_i64() == 0) as i64)),
            other => vec1(other, not_op_owned),
        }),
        CExpr::Select { cond, t, f } => {
            // A condition held in a register (the common shape for masks the
            // lowering pass hoisted into `let`s) is blended without cloning:
            // the arms cannot write the condition's slot, because every
            // binder gets a unique slot at compile time.
            if let CExpr::Slot(slot) = cond.as_ref() {
                if m.regs[*slot as usize].lanes() == 1 {
                    return if m.regs[*slot as usize].as_bool()? {
                        eval(prog, t, m, ctx)
                    } else {
                        eval(prog, f, m, ctx)
                    };
                }
                return masked_select_from_slot(prog, *slot, t, f, m, ctx);
            }
            let c = eval(prog, cond, m, ctx)?;
            // Scalar condition: evaluate only the taken branch.
            if c.lanes() == 1 {
                return if c.as_bool()? {
                    eval(prog, t, m, ctx)
                } else {
                    eval(prog, f, m, ctx)
                };
            }
            masked_select(prog, c, t, f, m, ctx)
        }
        CExpr::Ramp {
            base,
            stride,
            lanes,
        } => {
            let b = eval(prog, base, m, ctx)?;
            let s = eval(prog, stride, m, ctx)?;
            if b.is_float_kind() || s.is_float_kind() {
                let (b, s) = (f64_scalar(&b)?, f64_scalar(&s)?);
                let mut v = float_lanes(*lanes as usize);
                v.extend((0..*lanes as i64).map(|i| b + s * i as f64));
                Ok(vv(Value::Float(v)))
            } else {
                Ok(CValue::R {
                    base: b.as_int()?,
                    stride: s.as_int()?,
                    lanes: *lanes,
                })
            }
        }
        CExpr::Broadcast { value, lanes } => {
            let n = *lanes as usize;
            Ok(match eval(prog, value, m, ctx)? {
                CValue::S(Scalar::Int(x)) => vv(int_splat(x, n)),
                CValue::S(Scalar::Float(x)) => vv(float_splat(x, n)),
                CValue::V(v) if v.get().lanes() == n => CValue::V(v),
                r @ CValue::R { lanes, .. } if lanes as usize == n => r,
                other => vec1(other, |v| {
                    let splat = match &v {
                        Value::Int(x) => int_splat(x[0], n),
                        Value::Float(x) => float_splat(x[0], n),
                    };
                    recycle(v);
                    splat
                }),
            })
        }
        CExpr::Let { slot, value, body } => {
            let v = eval(prog, value, m, ctx)?;
            m.regs[*slot as usize] = v;
            eval(prog, body, m, ctx)
        }
        CExpr::Shl { a, bits } => {
            let va = eval(prog, a, m, ctx)?;
            if ctx.instrument {
                ctx.counters.add_arith(1);
            }
            // A symbolic ramp shifts affinely: (base + stride·i) << k is
            // (base << k) + (stride << k)·i in the mod-2⁶⁴ ring.
            if let CValue::R {
                base,
                stride,
                lanes,
            } = va
            {
                return Ok(CValue::R {
                    base: base.wrapping_shl(*bits),
                    stride: stride.wrapping_shl(*bits),
                    lanes,
                });
            }
            int_map(va, |x| x.wrapping_shl(*bits), "strength-reduced shift")
        }
        CExpr::Shr { a, bits } => {
            let va = eval(prog, a, m, ctx)?;
            if ctx.instrument {
                ctx.counters.add_arith(1);
            }
            int_map(va, |x| x >> *bits, "strength-reduced shift")
        }
        CExpr::AndMask { a, mask } => {
            let va = eval(prog, a, m, ctx)?;
            if ctx.instrument {
                ctx.counters.add_arith(1);
            }
            int_map(va, |x| x & *mask, "strength-reduced mask")
        }
        CExpr::Count { arith, inner } => {
            if ctx.instrument {
                ctx.counters.add_arith(*arith as u64);
            }
            eval(prog, inner, m, ctx)
        }
        CExpr::Load { buf, index } => {
            let idx = eval(prog, index, m, ctx)?;
            let buffer = m.buffer(prog, *buf)?;
            if ctx.instrument {
                count_load(ctx, &idx, idx.lanes());
            }
            if let CValue::S(i) = idx {
                return scalar_load(prog, *buf, buffer, i.as_i64());
            }
            load(prog, *buf, buffer, idx, None, None)
        }
        CExpr::LoadClamped { buf, index, lo, hi } => {
            let idx = eval(prog, index, m, ctx)?;
            let lo_v = eval(prog, lo, m, ctx)?.as_int()?;
            let hi_v = eval(prog, hi, m, ctx)?.as_int()?;
            let buffer = m.buffer(prog, *buf)?;
            if ctx.instrument {
                count_clamped_load(ctx, &idx, lo_v, hi_v);
            }
            if let CValue::S(i) = idx {
                return scalar_load(prog, *buf, buffer, i.as_i64().min(hi_v).max(lo_v));
            }
            load(prog, *buf, buffer, idx, None, Some((lo_v, hi_v)))
        }
        CExpr::LoadMasked { buf, index, mask } => {
            let idx = eval(prog, index, m, ctx)?;
            let mv = eval(prog, mask, m, ctx)?;
            let buffer = m.buffer(prog, *buf)?;
            if ctx.instrument {
                count_load(ctx, &idx, idx.lanes());
                ctx.counters.add_masked_load();
            }
            load(prog, *buf, buffer, idx, Some(mv), None)
        }
        CExpr::Intrinsic { f, args } => {
            // Every intrinsic reads at most two arguments; any further ones
            // are evaluated (for their errors and counters) and dropped, as
            // the interpreter ignores them.
            let mut vals = [None, None];
            for (k, a) in args.iter().enumerate() {
                let v = eval(prog, a, m, ctx)?;
                if let Some(slot) = vals.get_mut(k) {
                    *slot = Some(v);
                }
            }
            if ctx.instrument {
                ctx.counters.add_arith(1);
            }
            let [a, b] = vals;
            apply_intrinsic(*f, a, b)
        }
    }
}

/// Lane `k` of a `lanes`-wide access: `None` where the mask is false,
/// otherwise the index's lane `k`, clamped into `[lo, hi]` when a clamp is
/// given. An index or mask whose lane count differs from the access repeats
/// its lane 0 — the interpreter's `Value::broadcast` — and lanes are read
/// the way `Value::lane_int` reads them.
#[inline]
fn access_lane(
    idx: &CValue,
    mask: Option<&CValue>,
    clamp: Option<(i64, i64)>,
    lanes: usize,
    k: usize,
) -> Option<i64> {
    let lane = |v: &CValue| {
        let k = if v.lanes() == lanes { k } else { 0 };
        match v {
            CValue::S(s) => s.as_i64(),
            CValue::R { base, stride, .. } => ramp_lane(*base, *stride, k as i64),
            CValue::V(v) => v.get().lane_int(k),
        }
    };
    if mask.is_some_and(|m| lane(m) == 0) {
        return None;
    }
    let i = lane(idx);
    Some(match clamp {
        Some((lo, hi)) => i.min(hi).max(lo),
        None => i,
    })
}

/// Runs `$body` with `$seq` bound to the lane sequence of a `$lanes`-wide
/// access (see [`access_lane`]), chosen before any lane is read: a
/// unit-stride ramp as wide as the access, unmasked and unclamped or
/// clamped to a range that holds it, is a dense run; a full-width ramp or
/// integer index vector, with a clamp or a full-width integer mask or
/// neither, walks its lanes with no per-lane dispatch; anything else (a
/// narrow index or mask, float lanes) goes through [`access_lane`]. Each
/// shape instantiates `$body` once.
macro_rules! with_access_lanes {
    ($idx:expr, $mask:expr, $clamp:expr, $lanes:expr, |$seq:ident| $body:expr) => {{
        let (idx, mask, clamp, lanes): (&CValue, Option<&CValue>, Option<(i64, i64)>, usize) =
            ($idx, $mask, $clamp, $lanes);
        let clamp_lane = move |i: i64| match clamp {
            Some((lo, hi)) => i.min(hi).max(lo),
            None => i,
        };
        let mask_ints = mask.and_then(|m| full_width_ints(m, lanes));
        match (idx, mask, mask_ints, full_width_ints(idx, lanes)) {
            (
                &CValue::R {
                    base,
                    stride,
                    lanes: n,
                },
                None,
                _,
                _,
            ) if n as usize == lanes => {
                let in_range = |(lo, hi)| dense_within(base, lanes, lo, hi);
                if stride == 1 && clamp.is_none_or(in_range) {
                    let $seq = Lanes::<std::iter::Empty<Option<i64>>>::Dense { base, lanes };
                    $body
                } else {
                    let $seq = Lanes::Each(
                        (0..lanes)
                            .map(move |k| Some(clamp_lane(ramp_lane(base, stride, k as i64)))),
                    );
                    $body
                }
            }
            (
                &CValue::R {
                    base,
                    stride,
                    lanes: n,
                },
                Some(_),
                Some(m),
                _,
            ) if n as usize == lanes && clamp.is_none() => {
                let $seq = Lanes::Each(
                    m.iter()
                        .enumerate()
                        .map(move |(k, c)| (*c != 0).then(|| ramp_lane(base, stride, k as i64))),
                );
                $body
            }
            (_, None, _, Some(ix)) => {
                let $seq = Lanes::Each(ix.iter().map(move |i| Some(clamp_lane(*i))));
                $body
            }
            _ => {
                let $seq = Lanes::Each((0..lanes).map(|k| access_lane(idx, mask, clamp, lanes, k)));
                $body
            }
        }
    }};
}

/// The lanes of a vector register holding exactly `lanes` integer lanes.
fn full_width_ints(v: &CValue, lanes: usize) -> Option<&[i64]> {
    match v {
        CValue::V(r) => match r.get() {
            Value::Int(x) if x.len() == lanes => Some(x),
            _ => None,
        },
        _ => None,
    }
}

/// True when every lane of the unit-stride run `[base, base + lanes)` lies
/// in `[lo, hi]`, so clamping it changes no lane (false on overflow).
fn dense_within(base: i64, lanes: usize, lo: i64, hi: i64) -> bool {
    let last = i64::try_from(lanes - 1)
        .ok()
        .and_then(|d| base.checked_add(d));
    base >= lo && last.is_some_and(|last| last <= hi)
}

/// The scalar fast path of the `Load` and `LoadClamped` arms: one bounds
/// check, one unboxed element.
#[inline(always)]
fn scalar_load(prog: &Program, buf: u32, buffer: &Buffer, i: i64) -> Result<CValue> {
    let len = buffer.len();
    if i < 0 || i as usize >= len {
        return Err(oob(prog, buf, "load from", i, len));
    }
    Ok(CValue::S(buffer.get_flat_scalar(i as usize)))
}

/// Every load the scalar fast path does not take: the access's lane
/// sequence (see [`with_access_lanes`]) read in one [`Buffer::read_lanes`]
/// into a recycled register, which yields 0 for masked-off lanes and
/// reports the first enabled out-of-range one. Outlined to keep [`eval`]'s
/// hot match small.
#[inline(never)]
fn load(
    prog: &Program,
    buf: u32,
    buffer: &Buffer,
    idx: CValue,
    mask: Option<CValue>,
    clamp: Option<(i64, i64)>,
) -> Result<CValue> {
    let mut out = VReg::new(Value::Int(Vec::new()));
    with_access_lanes!(&idx, mask.as_ref(), clamp, idx.lanes(), |seq| {
        buffer.read_lanes(seq, out.get_mut())
    })
    .map_err(|i| oob(prog, buf, "load from", i, buffer.len()))?;
    Ok(CValue::V(out))
}

/// Every store the scalar fast path does not take, `lanes` wide (the wider
/// of index and value): lane `k` of the value written at the access's lane
/// `k` (see [`with_access_lanes`]) in one [`Buffer::write_lanes`]. Outlined
/// to keep [`exec`]'s hot match small.
#[inline(never)]
fn store(
    prog: &Program,
    buf: u32,
    buffer: &Buffer,
    idx: CValue,
    val: CValue,
    mask: Option<CValue>,
    lanes: usize,
) -> Result<()> {
    let v = val.into_value();
    let r = with_access_lanes!(&idx, mask.as_ref(), None, lanes, |seq| {
        buffer.write_lanes(seq, &v)
    });
    recycle(v);
    r.map_err(|i| oob(prog, buf, "store to", i, buffer.len()))
}

/// The instrument-on bookkeeping of a `Load`, kept out of the hot arm
/// (counter atomics plus the access-pattern classification).
#[cold]
fn count_load(ctx: &Context, idx: &CValue, lanes: usize) {
    ctx.counters.add_load(lanes as u64);
    ctx.counters.add_load_pattern(classify_load_index(idx));
}

/// The instrument-on bookkeeping of a `Store`.
#[cold]
fn count_store(ctx: &Context, idx: &CValue, lanes: usize) {
    ctx.counters.add_store(lanes as u64);
    ctx.counters
        .add_store_pattern(classify_store_index(idx, lanes));
}

/// The instrument-on bookkeeping of a `LoadClamped`: the `min`/`max` pair
/// the interpreter executes on the index, and the pattern of the clamped
/// lanes it then sees materialized.
#[cold]
fn count_clamped_load(ctx: &Context, idx: &CValue, lo: i64, hi: i64) {
    let lanes = idx.lanes();
    ctx.counters.add_arith(2);
    ctx.counters.add_load(lanes as u64);
    if lanes > 1 {
        let clamped: Vec<i64> = (0..lanes)
            .filter_map(|k| access_lane(idx, None, Some((lo, hi)), lanes, k))
            .collect();
        ctx.counters
            .add_load_pattern(halide_runtime::classify_flat_indices(&clamped));
    }
}

/// A `select` with a register-held vector mask: blend without cloning the
/// mask (the arms cannot write the condition's slot — slots are unique per
/// binder). Outlined to keep [`eval`]'s hot match small.
#[inline(never)]
fn masked_select_from_slot(
    prog: &Program,
    slot: u32,
    t: &CExpr,
    f: &CExpr,
    m: &mut Machine,
    ctx: &Context,
) -> Result<CValue> {
    if ctx.instrument {
        ctx.counters.add_masked_select();
    }
    let tv = eval(prog, t, m, ctx)?;
    let fv = eval(prog, f, m, ctx)?;
    Ok(match &m.regs[slot as usize] {
        CValue::V(c) => vec2(tv, fv, |t, f| select_op_owned(c.get(), t, f)),
        other => {
            let c = other.clone().into_value();
            let r = vec2(tv, fv, |t, f| select_op_owned(&c, t, f));
            recycle(c);
            r
        }
    })
}

/// A `select` with an already-evaluated vector mask: evaluate both
/// (side-effect-free) arms, then mask-and-blend over whole registers.
#[inline(never)]
fn masked_select(
    prog: &Program,
    cond: CValue,
    t: &CExpr,
    f: &CExpr,
    m: &mut Machine,
    ctx: &Context,
) -> Result<CValue> {
    if ctx.instrument {
        ctx.counters.add_masked_select();
    }
    let tv = eval(prog, t, m, ctx)?;
    let fv = eval(prog, f, m, ctx)?;
    let c = cond.into_value();
    let r = vec2(tv, fv, |t, f| select_op_owned(&c, t, f));
    recycle(c);
    Ok(r)
}

/// Applies an integer lane-wise function (the strength-reduced shift/mask
/// forms). The optimizer only emits these for registers proven integer, so
/// a float here is an internal error, not a user-visible one.
fn int_map(v: CValue, f: impl Fn(i64) -> i64, what: &str) -> Result<CValue> {
    match v {
        CValue::S(Scalar::Int(x)) => Ok(CValue::S(Scalar::Int(f(x)))),
        CValue::S(Scalar::Float(_)) => Err(ExecError::new(format!(
            "internal error: {what} applied to a float value"
        ))),
        other if other.is_float_kind() => Err(ExecError::new(format!(
            "internal error: {what} applied to a float vector"
        ))),
        other => Ok(vec1(other, |v| match v {
            Value::Int(mut xs) => {
                for x in xs.iter_mut() {
                    *x = f(*x);
                }
                Value::Int(xs)
            }
            float => float,
        })),
    }
}

fn f64_scalar(v: &CValue) -> Result<f64> {
    match v {
        CValue::S(s) => Ok(s.as_f64()),
        CValue::R { base, lanes: 1, .. } => Ok(*base as f64),
        CValue::V(v) if v.get().lanes() == 1 => Ok(v.get().lane_f64(0)),
        other => Err(ExecError::new(format!("expected a scalar, got {other:?}"))),
    }
}

fn oob(prog: &Program, buf: u32, what: &str, i: i64, len: usize) -> ExecError {
    ExecError::new(format!(
        "{what} {:?} at flat index {i} is outside the allocation of {len} elements",
        prog.buf_names[buf as usize]
    ))
}

/// Applies a resolved intrinsic to its (at most two) read arguments:
/// unboxed on scalar arguments, otherwise through the owned lane kernels,
/// which follow [`CIntrinsic::apply`]'s lane rules bit for bit.
fn apply_intrinsic(f: CIntrinsic, a: Option<CValue>, b: Option<CValue>) -> Result<CValue> {
    let missing = || ExecError::new("internal error: an intrinsic is missing an argument");
    let a = a.ok_or_else(missing)?;
    let s = match (f, &a, &b) {
        (CIntrinsic::Unary(f), CValue::S(x), _) => Scalar::Float(f(x.as_f64())),
        (CIntrinsic::Binary(f), CValue::S(x), Some(CValue::S(y))) => {
            Scalar::Float(f(x.as_f64(), y.as_f64()))
        }
        (CIntrinsic::Abs, CValue::S(Scalar::Int(v)), _) => Scalar::Int(v.abs()),
        (CIntrinsic::Abs, CValue::S(Scalar::Float(v)), _) => Scalar::Float(v.abs()),
        (CIntrinsic::MinMax(op), CValue::S(x), Some(CValue::S(y))) => scalar_binary_op(op, *x, *y),
        _ => {
            return Ok(match f {
                CIntrinsic::Unary(f) => vec1(a, |a| map_f64_owned(a, f)),
                CIntrinsic::Abs => vec1(a, abs_owned),
                CIntrinsic::Binary(f) => {
                    vec2(a, b.ok_or_else(missing)?, |a, b| zip_f64_owned(a, b, f))
                }
                CIntrinsic::MinMax(op) => {
                    vec2(a, b.ok_or_else(missing)?, |a, b| binary_op_owned(op, a, b))
                }
            });
        }
    };
    Ok(CValue::S(s))
}

/// Executes a compiled statement.
pub(crate) fn exec(prog: &Program, s: &CStmt, m: &mut Machine, ctx: &Context) -> Result<()> {
    match s {
        CStmt::SetSlot { slot, value } => {
            let v = eval(prog, value, m, ctx)?;
            m.regs[*slot as usize] = v;
            Ok(())
        }
        CStmt::Count { arith } => {
            if ctx.instrument {
                ctx.counters.add_arith(*arith as u64);
            }
            Ok(())
        }
        CStmt::Assert { cond, message } => {
            if eval(prog, cond, m, ctx)?.as_bool()? {
                Ok(())
            } else {
                Err(ExecError::new(format!("assertion failed: {message}")))
            }
        }
        CStmt::For {
            slot,
            min,
            extent,
            kind,
            hoisted,
            body,
        } => {
            let min_v = eval(prog, min, m, ctx)?.as_int()?;
            let extent_v = eval(prog, extent, m, ctx)?.as_int()?;
            match kind {
                ForKind::Serial | ForKind::Vectorized | ForKind::Unrolled => {
                    // Lowering replaces vectorized/unrolled loops; one that
                    // still reaches execution (a hand-built statement) runs
                    // serially.
                    for h in hoisted {
                        exec(prog, h, m, ctx)?;
                    }
                    for i in min_v..min_v + extent_v {
                        m.regs[*slot as usize] = CValue::S(Scalar::Int(i));
                        exec(prog, body, m, ctx)?;
                        if ctx.has_failed() {
                            break;
                        }
                    }
                    Ok(())
                }
                ForKind::Parallel => {
                    for h in hoisted {
                        exec(prog, h, m, ctx)?;
                    }
                    let base: &Machine = m;
                    ctx.pool
                        .parallel_for_chunks(min_v, extent_v, &ctx.counters, |start, end| {
                            if ctx.has_failed() {
                                return;
                            }
                            let mut mm = base.clone();
                            for i in start..end {
                                mm.regs[*slot as usize] = CValue::S(Scalar::Int(i));
                                if let Err(e) = exec(prog, body, &mut mm, ctx) {
                                    ctx.record_error(e);
                                }
                                if ctx.has_failed() {
                                    return;
                                }
                            }
                        });
                    match ctx.take_error() {
                        Some(e) => Err(e),
                        None => Ok(()),
                    }
                }
            }
        }
        CStmt::Store { buf, value, index } => {
            let idx = eval(prog, index, m, ctx)?;
            let val = eval(prog, value, m, ctx)?;
            let buffer = m.buffer(prog, *buf)?;
            let lanes = idx.lanes().max(val.lanes());
            if ctx.instrument {
                count_store(ctx, &idx, lanes);
            }
            // Scalar fast path: one bounds check, one unboxed element.
            if let (CValue::S(i), CValue::S(v)) = (&idx, &val) {
                let (i, len) = (i.as_i64(), buffer.len());
                if i < 0 || i as usize >= len {
                    return Err(oob(prog, *buf, "store to", i, len));
                }
                buffer.set_flat_scalar(i as usize, *v);
                return Ok(());
            }
            store(prog, *buf, buffer, idx, val, None, lanes)
        }
        CStmt::StoreMasked {
            buf,
            value,
            index,
            mask,
        } => {
            let idx = eval(prog, index, m, ctx)?;
            let val = eval(prog, value, m, ctx)?;
            let mv = eval(prog, mask, m, ctx)?;
            let buffer = m.buffer(prog, *buf)?;
            let lanes = idx.lanes().max(val.lanes());
            if ctx.instrument {
                count_store(ctx, &idx, lanes);
                ctx.counters.add_masked_store();
            }
            store(prog, *buf, buffer, idx, val, Some(mv), lanes)
        }
        CStmt::Allocate {
            buf,
            ty,
            size,
            body,
        } => {
            let n = eval(prog, size, m, ctx)?.as_int()?;
            if n < 0 {
                return Err(ExecError::new(format!(
                    "allocation of {:?} has negative size {n}",
                    prog.buf_names[*buf as usize]
                )));
            }
            let buffer = Arc::new(ctx.alloc_scratch(*ty, &[n]));
            let bytes = buffer.size_bytes() as u64;
            ctx.counters.add_allocation(bytes);
            if let Some(p) = &ctx.profiler {
                p.record_alloc(&prog.buf_names[*buf as usize], bytes);
            }
            m.bufs[*buf as usize] = Some(buffer);
            let r = exec(prog, body, m, ctx);
            if let Some(buffer) = m.bufs[*buf as usize].take() {
                ctx.release_scratch(buffer);
            }
            ctx.counters.add_free(bytes);
            if let Some(p) = &ctx.profiler {
                p.record_free(&prog.buf_names[*buf as usize], bytes);
            }
            r
        }
        CStmt::Block(stmts) => {
            for s in stmts {
                exec(prog, s, m, ctx)?;
                if ctx.has_failed() {
                    break;
                }
            }
            Ok(())
        }
        CStmt::If {
            cond,
            then_case,
            else_case,
        } => {
            if eval(prog, cond, m, ctx)?.as_bool()? {
                exec(prog, then_case, m, ctx)
            } else if let Some(e) = else_case {
                exec(prog, e, m, ctx)
            } else {
                Ok(())
            }
        }
        CStmt::Evaluate(value) => {
            eval(prog, value, m, ctx)?;
            Ok(())
        }
        CStmt::Produce { func, body } => {
            if let Some(p) = &ctx.profiler {
                let prev = p.enter_named(&prog.func_names[*func as usize]);
                let r = exec(prog, body, m, ctx);
                p.exit(prev);
                r
            } else {
                exec(prog, body, m, ctx)
            }
        }
        CStmt::NoOp => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{eval_stmt, Frame};
    use crate::opt::OptLevel;
    use halide_ir::ScalarType;
    use halide_ir::{Expr, Stmt, Type};
    use halide_runtime::ThreadPool;

    fn ctx() -> Context {
        Context::new(ThreadPool::new(4), true)
    }

    /// Runs a statement through both backends against fresh float buffers of
    /// the given sizes and asserts bit-identical buffer contents and
    /// identical counters.
    fn assert_backends_agree(s: &Stmt, buffers: &[(&str, i64)]) {
        // Interpreter.
        let ictx = ctx();
        let mut frame = Frame::default();
        let mut interp_bufs = Vec::new();
        for (name, len) in buffers {
            let b = Arc::new(Buffer::with_extents(ScalarType::Float(32), &[*len]));
            frame.insert_buffer(name.to_string(), Arc::clone(&b));
            interp_bufs.push(b);
        }
        eval_stmt(s, &mut frame, &ictx).unwrap();
        // `peak_bytes_live` depends on how many parallel iterations happen
        // to overlap, which is scheduling- not semantics-dependent; compare
        // everything else exactly.
        let mut ic = ictx.counters.snapshot();
        ic.peak_bytes_live = 0;

        // Compiled, with and without the optimizer.
        for level in [OptLevel::None, OptLevel::Default] {
            let prog = Program::compile_stmt_with(s, level).unwrap();
            let cctx = ctx();
            let mut m = Machine::new(&prog);
            let mut compiled_bufs = Vec::new();
            for (name, len) in buffers {
                let b = Arc::new(Buffer::with_extents(ScalarType::Float(32), &[*len]));
                if let Some(idx) = prog.free_buf(name) {
                    m.set_buf(idx, Arc::clone(&b));
                }
                compiled_bufs.push(b);
            }
            exec(&prog, &prog.body, &mut m, &cctx).unwrap();

            for ((name, _), (a, b)) in buffers.iter().zip(interp_bufs.iter().zip(&compiled_bufs)) {
                let av = a.to_f64_vec();
                let bv = b.to_f64_vec();
                assert_eq!(av.len(), bv.len());
                for (i, (x, y)) in av.iter().zip(bv.iter()).enumerate() {
                    assert!(
                        x.to_bits() == y.to_bits(),
                        "buffer {name}[{i}]: interp {x} != compiled {y} at {level:?}"
                    );
                }
            }
            let mut cc = cctx.counters.snapshot();
            cc.peak_bytes_live = 0;
            assert_eq!(ic, cc, "counters diverge between backends at {level:?}");
        }
    }

    /// Store `value(i)` for i in [0, n) — a loop wrapping an expression so
    /// both backends evaluate it the same number of times.
    fn store_loop(value: Expr, n: i64, kind: ForKind) -> Stmt {
        Stmt::for_loop(
            "i",
            Expr::int(0),
            Expr::int(n as i32),
            kind,
            Stmt::store("out", value, Expr::var_i32("i")),
        )
    }

    /// Every entry of the shared intrinsic table gives bit-identical results
    /// on both backends for float and integer scalars and a float vector.
    #[test]
    fn intrinsics_agree_on_both_backends() {
        let i = Expr::var_i32("i");
        let ramp = Expr::ramp(i.clone() * 4, Expr::int(1), 4);
        let float = i.clone().cast(Type::f32()) + 0.5f32;
        let vector = ramp.clone().cast(Type::f32()) * 0.25f32 + 0.5f32;
        let shapes = [
            (float, Expr::f32(1.7), i.clone()),
            (i.clone() - 3, Expr::int(0), i),
            (vector, Expr::f32(1.7), ramp),
        ];
        for (name, _, arity) in crate::compile::INTRINSICS {
            for (x, y, index) in &shapes {
                let args = [x.clone(), y.clone()][..arity].to_vec();
                let as_float = Type::f32().with_lanes(x.ty().lanes());
                let value = Expr::intrinsic(name, args, x.ty()).cast(as_float);
                let s = Stmt::for_loop(
                    "i",
                    Expr::int(0),
                    Expr::int(4),
                    ForKind::Serial,
                    Stmt::store("out", value, index.clone()),
                );
                assert_backends_agree(&s, &[("out", 16)]);
            }
        }
    }

    /// Unknown names and too-short calls are the same typed error on both
    /// backends.
    #[test]
    fn bad_intrinsic_calls_fail_alike_on_both_backends() {
        for (name, args) in [("no_such_intrinsic", 1), ("pow", 1), ("min", 0)] {
            let call = Expr::intrinsic(name, vec![Expr::f32(2.0); args], Type::f32());
            let s = Stmt::store("out", call, Expr::int(0));
            let compiled = Program::compile_stmt(&s).unwrap_err().to_string();
            let mut frame = Frame::default();
            let out = Buffer::with_extents(ScalarType::Float(32), &[1]);
            frame.insert_buffer("out", Arc::new(out));
            let interp = eval_stmt(&s, &mut frame, &ctx()).unwrap_err().to_string();
            assert_eq!(interp, compiled, "{name}");
        }
    }

    #[test]
    fn arithmetic_lets_selects_agree() {
        let i = Expr::var_i32("i");
        let cases: Vec<Expr> = vec![
            (i.clone() * 3 + 7).cast(Type::f32()) / 1.5f32,
            (i.clone() % 4).cast(Type::f32()),
            Expr::let_in(
                "t",
                i.clone() * 2,
                (Expr::var_i32("t") + Expr::var_i32("t")).cast(Type::f32()),
            ),
            Expr::select(
                Expr::lt(i.clone() % 2, Expr::int(1)),
                i.clone().cast(Type::f32()),
                -i.clone().cast(Type::f32()),
            ),
            Expr::select(
                Expr::and(
                    Expr::lt(i.clone(), Expr::int(6)),
                    Expr::gt(i.clone(), Expr::int(1)),
                ),
                Expr::f32(1.0),
                Expr::f32(0.0),
            ),
            Expr::select(
                Expr::or(
                    Expr::lt(i.clone(), Expr::int(2)),
                    Expr::not(Expr::lt(i.clone(), Expr::int(5))),
                ),
                Expr::f32(1.0),
                Expr::f32(0.0),
            ),
        ];
        for value in cases {
            assert_backends_agree(&store_loop(value, 8, ForKind::Serial), &[("out", 8)]);
        }
    }

    #[test]
    fn vector_ramps_agree() {
        // out[ramp(i*4, 1, 4)] = src-less vector arithmetic.
        let idx = Expr::ramp(Expr::var_i32("i") * 4, Expr::int(1), 4);
        let value = idx.clone().cast(Type::f32()) * 0.25f32 + 1.0f32;
        let s = Stmt::for_loop(
            "i",
            Expr::int(0),
            Expr::int(4),
            ForKind::Serial,
            Stmt::store("out", value, idx),
        );
        assert_backends_agree(&s, &[("out", 16)]);
    }

    #[test]
    fn parallel_loops_and_allocations_agree() {
        // A parallel loop whose body allocates a scratch buffer, fills it,
        // and reduces it into the output — exercises machine cloning,
        // per-chunk allocation scoping, and the structural counters.
        let scratch_store = Stmt::store(
            "tmp",
            Expr::var_i32("j").cast(Type::f32()) + Expr::var_i32("i").cast(Type::f32()),
            Expr::var_i32("j"),
        );
        let fill = Stmt::for_loop(
            "j",
            Expr::int(0),
            Expr::int(4),
            ForKind::Serial,
            scratch_store,
        );
        let reduce = Stmt::store(
            "out",
            Expr::load(Type::f32(), "tmp", Expr::int(0))
                + Expr::load(Type::f32(), "tmp", Expr::int(3)),
            Expr::var_i32("i"),
        );
        let body = Stmt::allocate(
            "tmp",
            Type::f32(),
            Expr::int(4),
            Stmt::block_of(vec![fill, reduce]),
        );
        let s = Stmt::for_loop("i", Expr::int(0), Expr::int(64), ForKind::Parallel, body);
        assert_backends_agree(&s, &[("out", 64)]);
    }

    #[test]
    fn hoisted_invariant_lets_agree() {
        // let a = 5; let b = a + 1 at the head of a loop body: peeled at
        // compile time by the compiled backend, per loop entry by the
        // interpreter — identical results and counters either way.
        let body = Stmt::let_stmt(
            "a",
            Expr::int(5),
            Stmt::let_stmt(
                "b",
                Expr::var_i32("a") + 1,
                Stmt::store(
                    "out",
                    (Expr::var_i32("b") + Expr::var_i32("i")).cast(Type::f32()),
                    Expr::var_i32("i"),
                ),
            ),
        );
        for kind in [ForKind::Serial, ForKind::Parallel] {
            let s = Stmt::for_loop("i", Expr::int(0), Expr::int(16), kind, body.clone());
            assert_backends_agree(&s, &[("out", 16)]);
        }
    }

    /// Fills `src[j] = j * 1.5 - 3.0` for j in [0, n) — gives loads real
    /// data to chew on inside a single differential statement.
    fn fill_loop(buf: &str, n: i64) -> Stmt {
        Stmt::for_loop(
            "j",
            Expr::int(0),
            Expr::int(n as i32),
            ForKind::Serial,
            Stmt::store(
                buf,
                Expr::var_i32("j").cast(Type::f32()) * 1.5f32 - 3.0f32,
                Expr::var_i32("j"),
            ),
        )
    }

    #[test]
    fn masked_selects_blend_identically() {
        // A vector-condition select whose arms are both loads: the engines
        // evaluate both arms and blend — outputs, masked-select and
        // dense-load counters must all match.
        let idx = Expr::ramp(Expr::var_i32("i") * 4, Expr::int(1), 4);
        let mask = Expr::lt(idx.clone() % 3, Expr::broadcast(Expr::int(2), 4));
        let value = Expr::select(
            mask,
            Expr::load(Type::f32(), "src", idx.clone()),
            Expr::load(Type::f32(), "src", idx.clone()) * -1.0f32,
        );
        let s = Stmt::block_of(vec![
            fill_loop("src", 16),
            Stmt::for_loop(
                "i",
                Expr::int(0),
                Expr::int(4),
                ForKind::Serial,
                Stmt::store("out", value, idx),
            ),
        ]);
        assert_backends_agree(&s, &[("src", 16), ("out", 16)]);
    }

    /// `min`/`max` of a ramp and a scalar, in both operand orders, on ramps
    /// wholly below, straddling, inside and wholly above the bound, with
    /// unit, negative, zero and wide strides: the symbolic forms (the ramp
    /// kept, or the stride-0 ramp of the bound) and the materialized
    /// straddling ones agree with the interpreter in values and counters,
    /// as stored values and as load indices.
    #[test]
    fn clamped_ramps_agree_inside_straddling_and_outside_the_bound() {
        let i = Expr::var_i32("i");
        let out_idx = Expr::ramp(i.clone() * 4, Expr::int(1), 4);
        for stride in [1, -1, 0, 3] {
            // Over i in 0..8 the lanes start at -12, -8, ..., 16.
            let ramp = Expr::ramp(i.clone() * 4 - 12, Expr::int(stride), 4);
            let c = Expr::int(7);
            let clamps = [
                Expr::min(ramp.clone(), c.clone()),
                Expr::max(ramp.clone(), c.clone()),
                Expr::min(c.clone(), ramp.clone()),
                Expr::max(c.clone(), ramp.clone()),
                Expr::max(Expr::min(ramp.clone(), Expr::int(15)), Expr::int(0)),
            ];
            for clamp in clamps {
                let s = store_loop4(clamp.cast(Type::f32().with_lanes(4)), &out_idx);
                assert_backends_agree(&s, &[("out", 32)]);
            }
            // As load indices: the fused clamped load (`LoadClamped`), in
            // range for some rows and partly or wholly out for others, and
            // the same clamp through a let, which stays a `min`/`max` pair.
            let fused = Expr::load(
                Type::f32(),
                "src",
                Expr::max(Expr::min(ramp.clone(), Expr::int(15)), Expr::int(0)),
            );
            let through_let = Expr::let_in(
                "t",
                Expr::min(ramp.clone(), Expr::int(15)),
                Expr::load(
                    Type::f32(),
                    "src",
                    Expr::max(Expr::var("t", Type::i32().with_lanes(4)), Expr::int(0)),
                ),
            );
            for value in [fused, through_let] {
                let s = Stmt::block_of(vec![fill_loop("src", 16), store_loop4(value, &out_idx)]);
                assert_backends_agree(&s, &[("src", 16), ("out", 32)]);
            }
        }
    }

    /// `for i in 0..8: out[idx] = value` — the loop the clamp tests store through.
    fn store_loop4(value: Expr, idx: &Expr) -> Stmt {
        Stmt::for_loop(
            "i",
            Expr::int(0),
            Expr::int(8),
            ForKind::Serial,
            Stmt::store("out", value, idx.clone()),
        )
    }

    /// A ramp the symbolic arithmetic has moved next to `i64::MAX`: its last
    /// lane overflows for some rows, so the clamp's extreme-lane check
    /// fails and the ramp materializes — to the lanes the interpreter's
    /// wrapping lane-wise add produced. The bounds include one, `MAX - 511`,
    /// that a wrapped last lane would misplace (it would keep a ramp whose
    /// lane `MAX - 255` must clamp); stored values are taken relative to it
    /// so that neighbouring lanes near `MAX` stay distinct in `f32`.
    #[test]
    fn clamps_on_ramps_near_i64_max_fall_back_and_agree() {
        let i64_imm = |v: u64| Expr::imm_of(Type::i64(), v as f64);
        // 2^63 - 1024 and 2^63 - 512, as sums of exactly representable halves.
        let base = i64_imm(1 << 62) + i64_imm((1 << 62) - 1024);
        let near_max = i64_imm(1 << 62) + i64_imm((1 << 62) - 512);
        let ramp = Expr::ramp(
            Expr::var_i32("i").cast(Type::i64()) * i64_imm(256),
            i64_imm(256),
            4,
        ) + Expr::broadcast(base, 4);
        for bound in [i64_imm(0), near_max.clone()] {
            let bound = Expr::broadcast(bound, 4);
            for clamp in [
                Expr::min(ramp.clone(), bound.clone()),
                Expr::max(ramp.clone(), bound.clone()),
            ] {
                assert_eq!(clamp.ty(), Type::i64().with_lanes(4));
                let relative = clamp - Expr::broadcast(near_max.clone(), 4);
                let value = relative.cast(Type::f32().with_lanes(4));
                let idx = Expr::ramp(Expr::var_i32("i") * 4, Expr::int(1), 4);
                assert_backends_agree(&store_loop4(value, &idx), &[("out", 32)]);
            }
        }
    }

    /// Masked selects at the widths the tuned schedules emit: the blend
    /// kernels over 64 and 128 lanes, with the mask in a register and
    /// computed in place, combined through `&&` / `||` / `!`, and with a
    /// broadcast arm.
    #[test]
    fn wide_masked_selects_agree() {
        for lanes in [64u16, 128] {
            let n = i64::from(lanes);
            let idx = Expr::ramp(Expr::var_i32("i") * i32::from(lanes), Expr::int(1), lanes);
            let bcast = |v: i32| Expr::broadcast(Expr::int(v), lanes);
            let mask = Expr::lt(idx.clone() % 3, bcast(2));
            let load = Expr::load(Type::f32(), "src", idx.clone());
            let values = [
                Expr::select(mask.clone(), load.clone(), load.clone() * -1.0f32),
                Expr::let_in(
                    "m",
                    mask.clone(),
                    Expr::select(
                        Expr::var("m", Type::bool().with_lanes(lanes)),
                        load.clone() + 1.0f32,
                        Expr::broadcast(Expr::f32(0.5), lanes),
                    ),
                ),
                Expr::select(
                    Expr::and(mask.clone(), Expr::lt(idx.clone(), bcast(100))),
                    load.clone(),
                    Expr::broadcast(Expr::f32(-1.0), lanes),
                ),
                Expr::select(
                    Expr::or(Expr::not(mask.clone()), Expr::gt(idx.clone(), bcast(150))),
                    load.clone() * 2.0f32,
                    load.clone(),
                ),
            ];
            for value in values {
                let s = Stmt::block_of(vec![
                    fill_loop("src", 2 * n),
                    Stmt::for_loop(
                        "i",
                        Expr::int(0),
                        Expr::int(2),
                        ForKind::Serial,
                        Stmt::store("out", value, idx.clone()),
                    ),
                ]);
                assert_backends_agree(&s, &[("src", 2 * n), ("out", 2 * n)]);
            }
        }
    }

    /// The register stays 24 bytes: a build that held `Value`
    /// inline (32 bytes) cost the scalar-only `realize_naive` workload
    /// ~20% (0.46 → 0.37-0.39 Mpix/s over four pairs), because every
    /// scalar register move copies the wider enum.
    #[test]
    fn register_stays_24_bytes() {
        assert_eq!(std::mem::size_of::<CValue>(), 24);
    }

    #[test]
    fn masked_select_with_oob_unless_masked_arm_errors_on_both_backends() {
        // The false arm loads 100 elements past the allocation. A masked
        // blend still evaluates both (side-effect-free) arms, so BOTH
        // engines must report the out-of-bounds load — the mask does not
        // license skipping the untaken lanes' bounds checks.
        let idx = Expr::ramp(Expr::int(0), Expr::int(1), 4);
        let value = Expr::select(
            Expr::lt(idx.clone(), Expr::broadcast(Expr::int(99), 4)),
            Expr::load(Type::f32(), "src", idx.clone()),
            Expr::load(Type::f32(), "src", idx.clone() + 100),
        );
        let s = Stmt::store("out", value, idx);

        let prog = Program::compile_stmt(&s).unwrap();
        let cctx = ctx();
        let mut m = Machine::new(&prog);
        for name in ["src", "out"] {
            m.set_buf(
                prog.free_buf(name).unwrap(),
                Arc::new(Buffer::with_extents(ScalarType::Float(32), &[8])),
            );
        }
        let compiled_err = exec(&prog, &prog.body, &mut m, &cctx).unwrap_err();
        assert!(compiled_err.to_string().contains("outside the allocation"));

        let ictx = ctx();
        let mut frame = Frame::default();
        for name in ["src", "out"] {
            frame.insert_buffer(
                name.to_string(),
                Arc::new(Buffer::with_extents(ScalarType::Float(32), &[8])),
            );
        }
        let interp_err = eval_stmt(&s, &mut frame, &ictx).unwrap_err();
        assert_eq!(compiled_err.to_string(), interp_err.to_string());
    }

    #[test]
    fn strided_loads_and_stores_agree() {
        // Non-unit-stride ramps on both the load and the store side: the
        // compiled engine's bulk strided paths against the interpreter's
        // per-lane loops, including the strided-access counters.
        let load_idx = Expr::ramp(Expr::var_i32("i"), Expr::int(3), 4);
        let store_idx = Expr::ramp(Expr::var_i32("i") * 8, Expr::int(2), 4);
        let s = Stmt::block_of(vec![
            fill_loop("src", 16),
            Stmt::for_loop(
                "i",
                Expr::int(0),
                Expr::int(4),
                ForKind::Serial,
                Stmt::store(
                    "out",
                    Expr::load(Type::f32(), "src", load_idx) * 2.0f32,
                    store_idx,
                ),
            ),
        ]);
        assert_backends_agree(&s, &[("src", 16), ("out", 32)]);
    }

    #[test]
    fn data_dependent_gather_and_scatter_agree() {
        // Indices loaded from a buffer (data-dependent): the load is a bulk
        // gather and the store a bulk scatter on the compiled engine; both
        // engines must agree on values and on the gather/scatter counters.
        let lane = Expr::ramp(Expr::var_i32("i") * 4, Expr::int(1), 4);
        let perm = Stmt::for_loop(
            "j",
            Expr::int(0),
            Expr::int(16),
            ForKind::Serial,
            Stmt::store("ind", (Expr::var_i32("j") * 7) % 16, Expr::var_i32("j")),
        );
        let gathered = Expr::load(
            Type::f32(),
            "src",
            Expr::load(Type::i32(), "ind", lane.clone()).cast(Type::i32()),
        );
        let s = Stmt::block_of(vec![
            perm,
            fill_loop("src", 16),
            Stmt::for_loop(
                "i",
                Expr::int(0),
                Expr::int(4),
                ForKind::Serial,
                Stmt::store(
                    "out",
                    gathered + 1.0f32,
                    Expr::load(Type::i32(), "ind", lane).cast(Type::i32()),
                ),
            ),
        ]);
        // `ind` is a float-storage buffer here (the helper allocates f32),
        // which exercises the trunc-to-int index conversions identically on
        // both engines.
        assert_backends_agree(&s, &[("ind", 16), ("src", 16), ("out", 16)]);
    }

    #[test]
    fn clamped_gather_loads_agree() {
        // The fused clamped-gather form against the interpreter's
        // min/max-then-load: identical values, arith counts, and pattern
        // counters — at the edges where the clamp actually bites.
        let idx = Expr::ramp(Expr::var_i32("i") * 4 - 6, Expr::int(1), 4);
        let clamped = Expr::max(
            Expr::min(idx, Expr::broadcast(Expr::int(15), 4)),
            Expr::broadcast(Expr::int(0), 4),
        );
        let s = Stmt::block_of(vec![
            fill_loop("src", 16),
            Stmt::for_loop(
                "i",
                Expr::int(0),
                Expr::int(6),
                ForKind::Serial,
                Stmt::store(
                    "out",
                    Expr::load(Type::f32(), "src", clamped),
                    Expr::ramp(Expr::var_i32("i") * 4, Expr::int(1), 4),
                ),
            ),
        ]);
        assert_backends_agree(&s, &[("src", 16), ("out", 24)]);
    }

    #[test]
    fn masked_dense_and_strided_ops_agree() {
        // Predicated (masked) loads and stores — the form predicate-tail
        // vectorization emits — on unit-stride and strided ramps with a
        // mixed mask: the compiled engine's bulk masked paths against the
        // interpreter's per-lane loop, values and masked-op counters alike.
        let dense = Expr::ramp(Expr::var_i32("i") * 4, Expr::int(1), 4);
        let strided = Expr::ramp(Expr::var_i32("i") * 8, Expr::int(2), 4);
        for idx in [dense, strided] {
            let mask = Expr::lt(idx.clone() % 3, Expr::broadcast(Expr::int(2), 4));
            let value =
                Expr::load_predicated(Type::f32(), "src", idx.clone(), mask.clone()) * 2.0f32;
            let s = Stmt::block_of(vec![
                fill_loop("src", 32),
                Stmt::for_loop(
                    "i",
                    Expr::int(0),
                    Expr::int(4),
                    ForKind::Serial,
                    Stmt::store_predicated("out", value, idx, mask),
                ),
            ]);
            assert_backends_agree(&s, &[("src", 32), ("out", 32)]);
        }

        // An all-true mask falls through to the unmasked bulk dispatch on
        // both engines — same values, same (unmasked) counters.
        let idx = Expr::ramp(Expr::var_i32("i") * 4, Expr::int(1), 4);
        let mask = Expr::lt(idx.clone(), Expr::broadcast(Expr::int(100), 4));
        let value = Expr::load_predicated(Type::f32(), "src", idx.clone(), mask.clone()) + 1.0f32;
        let s = Stmt::block_of(vec![
            fill_loop("src", 16),
            Stmt::for_loop(
                "i",
                Expr::int(0),
                Expr::int(4),
                ForKind::Serial,
                Stmt::store_predicated("out", value, idx, mask),
            ),
        ]);
        assert_backends_agree(&s, &[("src", 16), ("out", 16)]);
    }

    #[test]
    fn masked_oob_lanes_skip_checks_only_when_disabled() {
        // A ramp whose last two lanes run past the allocation — the shape
        // of a predicated tail. With those lanes masked off, both engines
        // skip them: no fault, disabled load lanes yield zero, disabled
        // store lanes stay untouched.
        let idx = Expr::ramp(Expr::int(4), Expr::int(1), 4); // lanes 4..8 of a 6-buffer
        let in_range = Expr::lt(idx.clone(), Expr::broadcast(Expr::int(6), 4));
        let value =
            Expr::load_predicated(Type::f32(), "src", idx.clone(), in_range.clone()) + 1.0f32;
        let ok = Stmt::block_of(vec![
            fill_loop("src", 6),
            Stmt::store_predicated("out", value, idx.clone(), in_range),
        ]);
        assert_backends_agree(&ok, &[("src", 6), ("out", 6)]);

        // The same lanes *enabled* must fault — the mask, not luck, is what
        // licenses the overhang — and both engines must report the very
        // same error, for the store and for the load.
        let enabled = Expr::lt(idx.clone(), Expr::broadcast(Expr::int(100), 4));
        let bad_store = Stmt::store_predicated(
            "out",
            Expr::broadcast(Expr::f32(1.0), 4),
            idx.clone(),
            enabled.clone(),
        );
        let bad_load = Stmt::store(
            "out",
            Expr::load_predicated(Type::f32(), "src", idx.clone() + 100, enabled),
            Expr::ramp(Expr::int(0), Expr::int(1), 4),
        );
        for s in [bad_store, bad_load] {
            let prog = Program::compile_stmt(&s).unwrap();
            let cctx = ctx();
            let mut m = Machine::new(&prog);
            for name in ["src", "out"] {
                if let Some(b) = prog.free_buf(name) {
                    m.set_buf(
                        b,
                        Arc::new(Buffer::with_extents(ScalarType::Float(32), &[6])),
                    );
                }
            }
            let compiled_err = exec(&prog, &prog.body, &mut m, &cctx).unwrap_err();
            assert!(
                compiled_err.to_string().contains("outside the allocation"),
                "{compiled_err}"
            );

            let ictx = ctx();
            let mut frame = Frame::default();
            for name in ["src", "out"] {
                frame.insert_buffer(
                    name.to_string(),
                    Arc::new(Buffer::with_extents(ScalarType::Float(32), &[6])),
                );
            }
            let interp_err = eval_stmt(&s, &mut frame, &ictx).unwrap_err();
            assert_eq!(compiled_err.to_string(), interp_err.to_string());
        }
    }

    #[test]
    fn mask_narrower_than_the_access_repeats_lane_zero() {
        // A 2-lane predicate on 4-lane loads and stores: [1, 0] on even
        // rows, [0, 1] on odd ones. Both engines widen it the interpreter's
        // way, repeating lane 0 across the access, never its last lane.
        let idx = Expr::ramp(Expr::var_i32("i") * 4, Expr::int(1), 4);
        let mask = Expr::eq(
            Expr::ramp(Expr::var_i32("i") % 2, Expr::int(1), 2) % 2,
            Expr::broadcast(Expr::int(0), 2),
        );
        let value = Expr::load_predicated(Type::f32(), "src", idx.clone(), mask.clone()) + 1.0f32;
        let s = Stmt::block_of(vec![
            fill_loop("src", 16),
            Stmt::for_loop(
                "i",
                Expr::int(0),
                Expr::int(4),
                ForKind::Serial,
                Stmt::store_predicated("out", value, idx, mask),
            ),
        ]);
        assert_backends_agree(&s, &[("src", 16), ("out", 16)]);
    }

    #[test]
    fn narrow_value_through_wide_ramp_store_agrees() {
        // Regression: a 2-lane value stored through a 4-lane unit-stride
        // ramp must clamp lanes like the interpreter (set_flat_lane), not
        // panic slicing the value vector out of range.
        let value = Expr::ramp(Expr::int(10), Expr::int(1), 2).cast(Type::f32());
        let idx = Expr::ramp(Expr::int(0), Expr::int(1), 4);
        let s = Stmt::store("out", value, idx);
        assert_backends_agree(&s, &[("out", 8)]);
    }

    #[test]
    fn out_of_bounds_is_an_error() {
        let s = Stmt::store("out", Expr::f32(1.0), Expr::int(99));
        let prog = Program::compile_stmt(&s).unwrap();
        let c = ctx();
        let mut m = Machine::new(&prog);
        m.set_buf(
            prog.free_buf("out").unwrap(),
            Arc::new(Buffer::with_extents(ScalarType::Float(32), &[4])),
        );
        let err = exec(&prog, &prog.body, &mut m, &c).unwrap_err();
        assert!(err.to_string().contains("outside the allocation"));
    }

    #[test]
    fn out_of_bounds_inside_parallel_loop_is_reported() {
        let body = Stmt::store("out", Expr::f32(1.0), Expr::var_i32("i"));
        let s = Stmt::for_loop("i", Expr::int(0), Expr::int(100), ForKind::Parallel, body);
        let prog = Program::compile_stmt(&s).unwrap();
        let c = ctx();
        let mut m = Machine::new(&prog);
        m.set_buf(
            prog.free_buf("out").unwrap(),
            Arc::new(Buffer::with_extents(ScalarType::Float(32), &[4])),
        );
        assert!(exec(&prog, &prog.body, &mut m, &c).is_err());
    }

    #[test]
    fn unknown_intrinsics_fail_at_compile_time() {
        let s = Stmt::store(
            "out",
            Expr::intrinsic("no_such_intrinsic", vec![Expr::int(0)], Type::i32()),
            Expr::int(0),
        );
        let err = Program::compile_stmt(&s).unwrap_err();
        assert!(err.to_string().contains("no_such_intrinsic"));
    }

    #[test]
    fn asserts_and_conditionals_execute() {
        let s = Stmt::block_of(vec![
            Stmt::assert_stmt(Expr::bool(true), "fine"),
            Stmt::if_then_else(
                Expr::bool(false),
                Stmt::assert_stmt(Expr::bool(false), "unreachable"),
                Some(Stmt::store("out", Expr::f32(7.0), Expr::int(0))),
            ),
        ]);
        assert_backends_agree(&s, &[("out", 1)]);

        let failing = Stmt::assert_stmt(Expr::bool(false), "boom");
        let prog = Program::compile_stmt(&failing).unwrap();
        let c = ctx();
        let mut m = Machine::new(&prog);
        let err = exec(&prog, &prog.body, &mut m, &c).unwrap_err();
        assert!(err.to_string().contains("boom"));
    }
}
