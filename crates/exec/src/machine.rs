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
//! unboxed scalar arithmetic, and the dense vector load/store paths that
//! skip index-vector materialization.

use std::sync::Arc;

use halide_ir::ForKind;
use halide_runtime::{
    binary_op, binary_op_owned, cast_owned, compare_op_owned, not_op_owned, scalar_binary_op,
    scalar_compare_op, select_op_owned, AccessPattern, Buffer, Scalar, Value,
};

use crate::compile::{CExpr, CIntrinsic, CStmt, Program};
use crate::error::{ExecError, Result};
use crate::eval::Context;

/// A register value: an unboxed scalar on the hot path, a boxed vector only
/// inside vectorized regions. Boxing the vector variant keeps the enum small,
/// so moving scalars through evaluation never touches the heap.
///
/// The `R` variant is a **symbolic integer ramp** `[base, base + stride, …)`:
/// the affine index vectors vectorization emits stay unmaterialized through
/// `let` bindings and through `+`/`-`/`*`-by-scalar arithmetic (exact in the
/// mod-2⁶⁴ integer ring, so the eventual lanes are bit-identical to the
/// interpreter's), and a unit-stride ramp index turns a vector load/store
/// into one dense, bounds-checked-once memory operation.
#[derive(Debug, Clone)]
pub(crate) enum CValue {
    /// One unboxed lane.
    S(Scalar),
    /// A symbolic integer affine vector (never materialized until needed).
    R { base: i64, stride: i64, lanes: u16 },
    /// Multiple lanes (or a one-lane vector produced by vector ops).
    V(Box<Value>),
}

/// Wraps a vector result.
#[inline]
fn vv(v: Value) -> CValue {
    CValue::V(Box::new(v))
}

impl CValue {
    #[inline]
    fn lanes(&self) -> usize {
        match self {
            CValue::S(_) => 1,
            CValue::R { lanes, .. } => *lanes as usize,
            CValue::V(v) => v.lanes(),
        }
    }

    /// Converts to the interpreter's boxed representation, consuming self
    /// (no clone for the vector variant; ramps materialize with the same
    /// `base + stride * i` lane formula as the interpreter).
    #[inline]
    fn into_value(self) -> Value {
        match self {
            CValue::S(s) => s.to_value(),
            CValue::R {
                base,
                stride,
                lanes,
            } => Value::Int((0..lanes as i64).map(|i| base + stride * i).collect()),
            CValue::V(v) => *v,
        }
    }

    /// The value as a boolean, matching `Value::as_bool` (panics there, an
    /// error here).
    #[inline]
    fn as_bool(&self) -> Result<bool> {
        match self {
            CValue::S(s) => Ok(s.as_bool()),
            CValue::R { base, lanes: 1, .. } => Ok(*base != 0),
            CValue::V(v) if v.lanes() == 1 => Ok(v.lane_f64(0) != 0.0),
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
            CValue::V(v) => match v.as_ref() {
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
            CValue::V(v) => matches!(v.as_ref(), Value::Float(_)),
        }
    }
}

/// Symbolic ramp arithmetic: `ramp op scalar` (or scalar op ramp, or
/// ramp op ramp) without materializing lanes, for the operations where the
/// result is again an affine ramp with **bit-identical** lanes (integer
/// `+`/`-`/`*` distribute over the lane formula in the mod-2⁶⁴ ring).
#[inline]
fn ramp_bin(op: halide_ir::BinOp, a: &CValue, b: &CValue) -> Option<CValue> {
    use halide_ir::BinOp;
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
        CValue::V(v) => halide_runtime::classify_flat_indices(&v.to_int_lanes()),
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
            other => vv(cast_owned(other.into_value(), *ty)),
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
                    None => vv(binary_op_owned(*op, va.into_value(), vb.into_value())),
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
                (va, vb) => vv(compare_op_owned(*op, va.into_value(), vb.into_value())),
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
            let c = va.into_value();
            Ok(vv(select_op_owned(&c, vb.into_value(), Value::bool(false))))
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
            let c = va.into_value();
            Ok(vv(select_op_owned(&c, Value::bool(true), vb.into_value())))
        }
        CExpr::Not { a } => Ok(match eval(prog, a, m, ctx)? {
            CValue::S(s) => CValue::S(Scalar::Int((s.as_i64() == 0) as i64)),
            other => vv(not_op_owned(other.into_value())),
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
                Ok(vv(Value::Float(
                    (0..*lanes as i64).map(|i| b + s * i as f64).collect(),
                )))
            } else {
                Ok(CValue::R {
                    base: b.as_int()?,
                    stride: s.as_int()?,
                    lanes: *lanes,
                })
            }
        }
        CExpr::Broadcast { value, lanes } => {
            let v = eval(prog, value, m, ctx)?;
            Ok(vv(v.into_value().broadcast(*lanes as usize)))
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
            let lanes = idx.lanes();
            if ctx.instrument {
                count_load(ctx, &idx, lanes);
            }
            let len = buffer.len();
            // Scalar fast path: one bounds check, one typed read, no Vec.
            if let CValue::S(s) = &idx {
                let i = s.as_i64();
                if i < 0 || i as usize >= len {
                    return Err(oob(prog, *buf, "load from", i, len));
                }
                return Ok(CValue::S(buffer.get_flat_scalar(i as usize)));
            }
            // A symbolic ramp: one bulk memory operation — dense (one bounds
            // check, one contiguous read) for unit stride, a bulk strided
            // read otherwise. Either way the index lanes never materialize.
            if let CValue::R {
                base: base_v,
                stride,
                ..
            } = idx
            {
                if stride == 1 {
                    return dense_load(prog, *buf, buffer, base_v, lanes);
                }
                return strided_load(prog, *buf, buffer, base_v, stride, lanes);
            }
            let idx = idx.into_value();
            Ok(vv(gather(prog, *buf, buffer, &idx, lanes)?))
        }
        CExpr::LoadDense { buf, base, lanes } => {
            let lanes = *lanes as usize;
            let base_v = eval(prog, base, m, ctx)?.as_int()?;
            let buffer = m.buffer(prog, *buf)?;
            if ctx.instrument {
                ctx.counters.add_load(lanes as u64);
                if lanes > 1 {
                    ctx.counters.add_load_pattern(AccessPattern::Dense);
                }
            }
            dense_load(prog, *buf, buffer, base_v, lanes)
        }
        CExpr::LoadClamped { buf, index, lo, hi } => {
            let idx = eval(prog, index, m, ctx)?;
            let lo_v = eval(prog, lo, m, ctx)?.as_int()?;
            let hi_v = eval(prog, hi, m, ctx)?.as_int()?;
            clamped_load(prog, *buf, idx, lo_v, hi_v, m, ctx)
        }
        CExpr::LoadMasked { buf, index, mask } => {
            let idx = eval(prog, index, m, ctx)?;
            let mv = eval(prog, mask, m, ctx)?;
            let buffer = m.buffer(prog, *buf)?;
            let lanes = idx.lanes();
            if ctx.instrument {
                count_load(ctx, &idx, lanes);
                ctx.counters.add_masked_load();
            }
            masked_load(prog, *buf, buffer, idx, mv, lanes)
        }
        CExpr::Intrinsic { f, args } => {
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(eval(prog, a, m, ctx)?);
            }
            if ctx.instrument {
                ctx.counters.add_arith(1);
            }
            Ok(apply_intrinsic(*f, vals))
        }
    }
}

/// Vector load through an arbitrary index vector (the gather case).
fn gather(prog: &Program, buf: u32, buffer: &Buffer, idx: &Value, lanes: usize) -> Result<Value> {
    let is_float = buffer.ty().is_float();
    // Integer index vector of exactly `lanes` lanes: one storage dispatch.
    if let Value::Int(iv) = idx {
        if iv.len() == lanes {
            return if is_float {
                buffer
                    .gather_flat_f64(iv)
                    .map(Value::Float)
                    .map_err(|i| oob(prog, buf, "load from", i, buffer.len()))
            } else {
                buffer
                    .gather_flat_i64(iv)
                    .map(Value::Int)
                    .map_err(|i| oob(prog, buf, "load from", i, buffer.len()))
            };
        }
    }
    let len = buffer.len();
    let mut out_i: Vec<i64> = Vec::with_capacity(if is_float { 0 } else { lanes });
    let mut out_f: Vec<f64> = Vec::with_capacity(if is_float { lanes } else { 0 });
    for lane in 0..lanes {
        let i = idx.lane_int(lane);
        if i < 0 || i as usize >= len {
            return Err(oob(prog, buf, "load from", i, len));
        }
        if is_float {
            out_f.push(buffer.get_flat_f64(i as usize));
        } else {
            out_i.push(buffer.get_flat_i64(i as usize));
        }
    }
    Ok(if is_float {
        Value::Float(out_f)
    } else {
        Value::Int(out_i)
    })
}

/// Loads `lanes` contiguous elements starting at `base_v` as one bulk typed
/// read; the compiled form of a load through a unit-stride ramp.
fn dense_load(
    prog: &Program,
    buf: u32,
    buffer: &Buffer,
    base_v: i64,
    lanes: usize,
) -> Result<CValue> {
    let len = buffer.len();
    if base_v < 0 || base_v as usize + lanes > len {
        let first_bad = if base_v < 0 {
            base_v
        } else {
            base_v.max(len as i64)
        };
        return Err(oob(prog, buf, "load from", first_bad, len));
    }
    let start = base_v as usize;
    Ok(vv(if buffer.ty().is_float() {
        Value::Float(buffer.read_flat_f64s(start, lanes))
    } else {
        Value::Int(buffer.read_flat_i64s(start, lanes))
    }))
}

/// Loads `lanes` elements at `base, base + stride, …` as one bulk strided
/// read; the compiled form of a load through a non-unit-stride symbolic ramp
/// (the index lanes never materialize).
fn strided_load(
    prog: &Program,
    buf: u32,
    buffer: &Buffer,
    base: i64,
    stride: i64,
    lanes: usize,
) -> Result<CValue> {
    Ok(vv(if buffer.ty().is_float() {
        buffer
            .read_flat_strided_f64s(base, stride, lanes)
            .map(Value::Float)
            .map_err(|i| oob(prog, buf, "load from", i, buffer.len()))?
    } else {
        buffer
            .read_flat_strided_i64s(base, stride, lanes)
            .map(Value::Int)
            .map_err(|i| oob(prog, buf, "load from", i, buffer.len()))?
    }))
}

/// Reads lane `lane` of a vector predicate. A mask narrower than the
/// operation is uniform across every lane — the broadcast the interpreter
/// materializes before its lane loop.
fn mask_lane(mask: &CValue, lane: usize) -> bool {
    match mask {
        CValue::S(s) => s.as_i64() != 0,
        CValue::R {
            base,
            stride,
            lanes,
        } => {
            let l = if (*lanes as usize) <= 1 {
                0
            } else {
                lane as i64
            };
            base + stride * l != 0
        }
        CValue::V(v) => {
            let l = if v.lanes() <= 1 { 0 } else { lane };
            v.lane_int(l) != 0
        }
    }
}

fn mask_all_true(mask: &CValue, lanes: usize) -> bool {
    (0..lanes).all(|l| mask_lane(mask, l))
}

/// A load with a lane predicate: a disabled lane is neither read nor
/// bounds-checked and yields zero; enabled lanes behave exactly like the
/// unmasked forms (an enabled out-of-bounds lane is still an error). An
/// all-true mask falls through to the bulk dispatches, so a predicated
/// tail whose guard happens to pass everywhere costs one bulk read.
#[inline(never)]
fn masked_load(
    prog: &Program,
    buf: u32,
    buffer: &Buffer,
    idx: CValue,
    mask: CValue,
    lanes: usize,
) -> Result<CValue> {
    if mask_all_true(&mask, lanes) {
        if let CValue::S(s) = &idx {
            let i = s.as_i64();
            let len = buffer.len();
            if i < 0 || i as usize >= len {
                return Err(oob(prog, buf, "load from", i, len));
            }
            return Ok(CValue::S(buffer.get_flat_scalar(i as usize)));
        }
        if let CValue::R {
            base: base_v,
            stride,
            ..
        } = idx
        {
            if stride == 1 {
                return dense_load(prog, buf, buffer, base_v, lanes);
            }
            return strided_load(prog, buf, buffer, base_v, stride, lanes);
        }
        let idx = idx.into_value();
        return Ok(vv(gather(prog, buf, buffer, &idx, lanes)?));
    }
    // A mixed mask: the reference per-lane loop, skipping disabled lanes
    // before their bounds checks.
    let len = buffer.len();
    let is_float = buffer.ty().is_float();
    let idx = idx.into_value().broadcast(lanes);
    let mut out_i: Vec<i64> = Vec::with_capacity(if is_float { 0 } else { lanes });
    let mut out_f: Vec<f64> = Vec::with_capacity(if is_float { lanes } else { 0 });
    for lane in 0..lanes {
        if !mask_lane(&mask, lane) {
            if is_float {
                out_f.push(0.0);
            } else {
                out_i.push(0);
            }
            continue;
        }
        let i = idx.lane_int(lane);
        if i < 0 || i as usize >= len {
            return Err(oob(prog, buf, "load from", i, len));
        }
        if is_float {
            out_f.push(buffer.get_flat_f64(i as usize));
        } else {
            out_i.push(buffer.get_flat_i64(i as usize));
        }
    }
    Ok(vv(if is_float {
        Value::Float(out_f)
    } else {
        Value::Int(out_i)
    }))
}

/// A store with a lane predicate: a disabled lane is neither written nor
/// bounds-checked. An all-true mask falls through to the unmasked bulk
/// dispatches.
#[inline(never)]
fn masked_store(
    prog: &Program,
    buf: u32,
    buffer: &Buffer,
    idx: CValue,
    val: CValue,
    mask: CValue,
    lanes: usize,
) -> Result<()> {
    let len = buffer.len();
    if mask_all_true(&mask, lanes) {
        if let (CValue::S(i), CValue::S(v)) = (&idx, &val) {
            let i = i.as_i64();
            if i < 0 || i as usize >= len {
                return Err(oob(prog, buf, "store to", i, len));
            }
            buffer.set_flat_scalar(i as usize, *v);
            return Ok(());
        }
        return vector_store(prog, buf, buffer, idx, val, lanes);
    }
    let idx = idx.into_value().broadcast(lanes);
    let val = val.into_value();
    for lane in 0..lanes {
        if !mask_lane(&mask, lane) {
            continue;
        }
        let i = idx.lane_int(lane);
        if i < 0 || i as usize >= len {
            return Err(oob(prog, buf, "store to", i, len));
        }
        buffer.set_flat_lane(i as usize, &val, lane);
    }
    Ok(())
}

/// Stores `val` through a non-unit-stride ramp as one bulk strided write.
/// Returns `None` when the value's shape has no bulk form (the caller falls
/// back to the per-lane loop, which reproduces the interpreter exactly).
fn strided_store(
    prog: &Program,
    buf: u32,
    buffer: &Buffer,
    base: i64,
    stride: i64,
    lanes: usize,
    val: &CValue,
) -> Option<Result<()>> {
    let len = buffer.len();
    match val {
        // A scalar value: every lane writes the same converted element.
        CValue::S(s) => {
            for k in 0..lanes {
                let i = base + stride * k as i64;
                if i < 0 || i as usize >= len {
                    return Some(Err(oob(prog, buf, "store to", i, len)));
                }
                buffer.set_flat_scalar(i as usize, *s);
            }
            Some(Ok(()))
        }
        CValue::V(v) => match v.as_ref() {
            Value::Float(fv) if fv.len() == lanes => Some(
                buffer
                    .write_flat_strided_f64s(base, stride, fv)
                    .map_err(|i| oob(prog, buf, "store to", i, len)),
            ),
            Value::Int(iv) if iv.len() == lanes => Some(
                buffer
                    .write_flat_strided_i64s(base, stride, iv)
                    .map_err(|i| oob(prog, buf, "store to", i, len)),
            ),
            _ => None,
        },
        CValue::R { .. } => None,
    }
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

/// A store whose index or value is a vector, dispatched to the bulk forms:
/// dense or strided for symbolic ramps, a single scatter for index vectors
/// with a lane-matched value, the reference per-lane loop otherwise.
/// Outlined so the scalar store path in [`exec`]'s hot match stays small.
#[inline(never)]
fn vector_store(
    prog: &Program,
    buf: u32,
    buffer: &Buffer,
    idx: CValue,
    val: CValue,
    lanes: usize,
) -> Result<()> {
    let len = buffer.len();
    // A symbolic ramp covering the whole store: one bulk write — contiguous
    // for unit stride, strided otherwise.
    if let CValue::R {
        base: base_v,
        stride,
        lanes: rl,
    } = idx
    {
        if stride == 1 {
            return dense_store(prog, buf, buffer, base_v, rl as usize, lanes, val, len);
        }
        if rl as usize == lanes {
            if let Some(r) = strided_store(prog, buf, buffer, base_v, stride, lanes, &val) {
                return r;
            }
        }
        // Reproduce the per-lane semantics for the odd shapes (value wider
        // than the ramp, multi-lane-but-narrower value).
        return per_lane_store(prog, buf, buffer, idx, val, lanes);
    }
    // An arbitrary index vector with a matching value vector: one bulk
    // scatter, one storage dispatch.
    if let CValue::V(iv) = &idx {
        if let (Value::Int(ints), true) = (iv.as_ref(), idx.lanes() == lanes) {
            let scattered = match &val {
                CValue::V(v) => match v.as_ref() {
                    Value::Float(fv) if fv.len() == lanes => Some(
                        buffer
                            .scatter_flat_f64s(ints, fv)
                            .map_err(|i| oob(prog, buf, "store to", i, len)),
                    ),
                    Value::Int(vv) if vv.len() == lanes => Some(
                        buffer
                            .scatter_flat_i64s(ints, vv)
                            .map_err(|i| oob(prog, buf, "store to", i, len)),
                    ),
                    _ => None,
                },
                _ => None,
            };
            if let Some(r) = scattered {
                return r;
            }
        }
    }
    per_lane_store(prog, buf, buffer, idx, val, lanes)
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
    let tv = eval(prog, t, m, ctx)?.into_value();
    let fv = eval(prog, f, m, ctx)?.into_value();
    Ok(vv(match &m.regs[slot as usize] {
        CValue::V(c) => select_op_owned(c, tv, fv),
        other => select_op_owned(&other.clone().into_value(), tv, fv),
    }))
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
    Ok(vv(select_op_owned(&c, tv.into_value(), fv.into_value())))
}

/// A load through `max(min(index, hi), lo)`: clamp while gathering, one
/// storage dispatch, no min/max intermediate vectors (which still count as
/// the two arithmetic operations the interpreter executes for them).
/// Outlined to keep [`eval`]'s hot match small.
#[inline(never)]
fn clamped_load(
    prog: &Program,
    buf: u32,
    idx: CValue,
    lo_v: i64,
    hi_v: i64,
    m: &mut Machine,
    ctx: &Context,
) -> Result<CValue> {
    let buffer = m.buffer(prog, buf)?;
    let lanes = idx.lanes();
    if ctx.instrument {
        ctx.counters.add_arith(2);
        ctx.counters.add_load(lanes as u64);
        if lanes > 1 {
            // Classify the post-clamp indices, as the interpreter (which
            // sees them materialized) does.
            let clamped: Vec<i64> = match &idx {
                CValue::S(s) => vec![s.as_i64().min(hi_v).max(lo_v)],
                CValue::R {
                    base,
                    stride,
                    lanes,
                } => (0..*lanes as i64)
                    .map(|k| (base + stride * k).min(hi_v).max(lo_v))
                    .collect(),
                CValue::V(v) => v
                    .to_int_lanes()
                    .iter()
                    .map(|i| (*i).min(hi_v).max(lo_v))
                    .collect(),
            };
            ctx.counters
                .add_load_pattern(halide_runtime::classify_flat_indices(&clamped));
        }
    }
    let len = buffer.len();
    // Scalar: clamp, one bounds check, one typed read.
    if let CValue::S(s) = &idx {
        let i = s.as_i64().min(hi_v).max(lo_v);
        if i < 0 || i as usize >= len {
            return Err(oob(prog, buf, "load from", i, len));
        }
        return Ok(CValue::S(buffer.get_flat_scalar(i as usize)));
    }
    let idx = idx.into_value();
    let ints = idx.to_int_lanes();
    Ok(vv(if buffer.ty().is_float() {
        buffer
            .gather_flat_f64_clamped(&ints, lo_v, hi_v)
            .map(Value::Float)
            .map_err(|i| oob(prog, buf, "load from", i, len))?
    } else {
        buffer
            .gather_flat_i64_clamped(&ints, lo_v, hi_v)
            .map(Value::Int)
            .map_err(|i| oob(prog, buf, "load from", i, len))?
    }))
}

/// The reference per-lane store loop: broadcast the index, bounds-check and
/// write lane by lane — exactly the interpreter's semantics. The bulk store
/// paths above are shortcuts for the shapes they cover; everything else
/// lands here.
fn per_lane_store(
    prog: &Program,
    buf: u32,
    buffer: &Buffer,
    idx: CValue,
    val: CValue,
    lanes: usize,
) -> Result<()> {
    let len = buffer.len();
    let idx = idx.into_value().broadcast(lanes);
    let val = val.into_value();
    for lane in 0..lanes {
        let i = idx.lane_int(lane);
        if i < 0 || i as usize >= len {
            return Err(oob(prog, buf, "store to", i, len));
        }
        buffer.set_flat_lane(i as usize, &val, lane);
    }
    Ok(())
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
        other => match other.into_value() {
            Value::Int(xs) => Ok(vv(Value::Int(xs.into_iter().map(f).collect()))),
            Value::Float(_) => Err(ExecError::new(format!(
                "internal error: {what} applied to a float vector"
            ))),
        },
    }
}

fn f64_scalar(v: &CValue) -> Result<f64> {
    match v {
        CValue::S(s) => Ok(s.as_f64()),
        CValue::R { base, lanes: 1, .. } => Ok(*base as f64),
        CValue::V(v) if v.lanes() == 1 => Ok(v.lane_f64(0)),
        other => Err(ExecError::new(format!("expected a scalar, got {other:?}"))),
    }
}

fn oob(prog: &Program, buf: u32, what: &str, i: i64, len: usize) -> ExecError {
    ExecError::new(format!(
        "{what} {:?} at flat index {i} is outside the allocation of {len} elements",
        prog.buf_names[buf as usize]
    ))
}

/// Stores `lanes` lanes of `val` contiguously starting at `base_v`; the
/// compiled form of a store through a unit-stride ramp. `lanes` is the
/// already-counted max of ramp and value lanes.
#[allow(clippy::too_many_arguments)]
fn dense_store(
    prog: &Program,
    buf: u32,
    buffer: &Buffer,
    base_v: i64,
    ramp_lanes: usize,
    lanes: usize,
    val: CValue,
    len: usize,
) -> Result<()> {
    if lanes > ramp_lanes {
        // A wider value than the index: the interpreter broadcasts the
        // index's first lane. Rare; reproduce it faithfully.
        let val = val.into_value();
        for lane in 0..lanes {
            let i = base_v;
            if i < 0 || i as usize >= len {
                return Err(oob(prog, buf, "store to", i, len));
            }
            buffer.set_flat_lane(i as usize, &val, lane);
        }
        return Ok(());
    }
    if base_v < 0 || base_v as usize + lanes > len {
        let first_bad = if base_v < 0 {
            base_v
        } else {
            base_v.max(len as i64)
        };
        return Err(oob(prog, buf, "store to", first_bad, len));
    }
    let start = base_v as usize;
    match val {
        CValue::S(s) => {
            for lane in 0..lanes {
                buffer.set_flat_scalar(start + lane, s);
            }
        }
        other => match other.into_value() {
            Value::Float(fv) if fv.len() >= lanes => buffer.write_flat_f64s(start, &fv[..lanes]),
            Value::Int(iv) if iv.len() >= lanes => buffer.write_flat_i64s(start, &iv[..lanes]),
            // A value narrower than the ramp (but not scalar): mirror the
            // interpreter's per-lane clamp instead of slicing out of range.
            val => {
                for lane in 0..lanes {
                    buffer.set_flat_lane(start + lane, &val, lane);
                }
            }
        },
    }
    Ok(())
}

/// Applies a resolved intrinsic with the same lane semantics as
/// `eval::eval_intrinsic`.
fn apply_intrinsic(f: CIntrinsic, mut args: Vec<CValue>) -> CValue {
    match f {
        CIntrinsic::Unary(f) => match args.swap_remove(0) {
            CValue::S(s) => CValue::S(Scalar::Float(f(s.as_f64()))),
            other => vv(Value::Float(
                other
                    .into_value()
                    .to_f64_lanes()
                    .iter()
                    .map(|x| f(*x))
                    .collect(),
            )),
        },
        CIntrinsic::Binary(f) => {
            let b = args.swap_remove(1);
            let a = args.swap_remove(0);
            match (a, b) {
                (CValue::S(a), CValue::S(b)) => CValue::S(Scalar::Float(f(a.as_f64(), b.as_f64()))),
                (a, b) => {
                    let lanes = a.lanes();
                    let av = a.into_value().to_f64_lanes();
                    let bv = b.into_value().broadcast(lanes).to_f64_lanes();
                    vv(Value::Float(
                        av.iter().zip(bv.iter()).map(|(x, y)| f(*x, *y)).collect(),
                    ))
                }
            }
        }
        CIntrinsic::Abs => match args.swap_remove(0) {
            CValue::S(Scalar::Int(v)) => CValue::S(Scalar::Int(v.abs())),
            CValue::S(Scalar::Float(v)) => CValue::S(Scalar::Float(v.abs())),
            other => vv(match other.into_value() {
                Value::Int(v) => Value::Int(v.iter().map(|x| x.abs()).collect()),
                Value::Float(v) => Value::Float(v.iter().map(|x| x.abs()).collect()),
            }),
        },
        CIntrinsic::MinMax(op) => {
            let b = args.swap_remove(1);
            let a = args.swap_remove(0);
            match (a, b) {
                (CValue::S(a), CValue::S(b)) => CValue::S(scalar_binary_op(op, a, b)),
                (a, b) => vv(binary_op(op, &a.into_value(), &b.into_value())),
            }
        }
    }
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
                    // Vectorized/unrolled loops only reach execution when the
                    // corresponding pass was disabled; run them serially.
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
            let len = buffer.len();
            // Scalar fast path: one bounds check, one typed write.
            if let (CValue::S(i), CValue::S(v)) = (&idx, &val) {
                let i = i.as_i64();
                if i < 0 || i as usize >= len {
                    return Err(oob(prog, *buf, "store to", i, len));
                }
                buffer.set_flat_scalar(i as usize, *v);
                return Ok(());
            }
            vector_store(prog, *buf, buffer, idx, val, lanes)
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
            masked_store(prog, *buf, buffer, idx, val, mv, lanes)
        }
        CStmt::StoreDense {
            buf,
            value,
            base,
            lanes,
        } => {
            let ramp_lanes = *lanes as usize;
            let base_v = eval(prog, base, m, ctx)?.as_int()?;
            let val = eval(prog, value, m, ctx)?;
            let buffer = m.buffer(prog, *buf)?;
            let lanes = ramp_lanes.max(val.lanes());
            if ctx.instrument {
                ctx.counters.add_store(lanes as u64);
                if lanes > 1 {
                    // A value wider than the ramp broadcasts the ramp's
                    // first lane, which the shared classification rule calls
                    // a stride-0 strided store.
                    ctx.counters.add_store_pattern(if ramp_lanes == lanes {
                        AccessPattern::Dense
                    } else {
                        AccessPattern::Strided
                    });
                }
            }
            let len = buffer.len();
            dense_store(prog, *buf, buffer, base_v, ramp_lanes, lanes, val, len)
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

    #[test]
    fn intrinsics_agree_on_both_backends() {
        let x = Expr::var_i32("i").cast(Type::f32()) + 0.5f32;
        let xi = Expr::var_i32("i") - 3;
        let cases: Vec<Expr> = vec![
            x.sqrt(),
            x.exp(),
            x.log(),
            x.pow(Expr::f32(1.7)),
            x.abs(),
            xi.abs().cast(Type::f32()),
            x.floor(),
            x.ceil(),
            Expr::intrinsic("round", vec![x.clone()], Type::f32()),
            Expr::intrinsic("sin", vec![x.clone()], Type::f32()),
            Expr::intrinsic("cos", vec![x.clone()], Type::f32()),
            Expr::intrinsic("tanh", vec![x.clone()], Type::f32()),
            Expr::intrinsic("atan2", vec![x.clone(), Expr::f32(2.0)], Type::f32()),
            Expr::intrinsic("min", vec![x.clone(), Expr::f32(3.0)], Type::f32()),
            Expr::intrinsic("max", vec![x.clone(), Expr::f32(3.0)], Type::f32()),
            Expr::intrinsic("min", vec![xi.clone(), Expr::int(0)], Type::i32()).cast(Type::f32()),
            Expr::intrinsic("max", vec![xi, Expr::int(0)], Type::i32()).cast(Type::f32()),
        ];
        for value in cases {
            assert_backends_agree(&store_loop(value, 8, ForKind::Serial), &[("out", 8)]);
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
