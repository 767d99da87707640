//! Runtime values: scalars and SIMD-style vectors.
//!
//! The executor evaluates every expression to a [`Value`]: a vector of lanes
//! that is either integer (covering all signed/unsigned integer and boolean
//! IR types, stored as `i64`) or floating point (`f64`). A scalar is simply a
//! one-lane vector. Mixed-lane operations broadcast the scalar side, which is
//! how vectorized code produced by Sec. 4.5 of the paper executes without a
//! separate static broadcasting pass.
//!
//! Every operation exists in a borrowing form (`binary_op`, `select_op`, …,
//! the interpreter's oracle) and an owned form (`binary_op_owned`, …, the
//! compiled engine's vector path). Both read one lane formula per operation
//! (`int_bin`, `float_bin`, `int_cmp`, `float_cmp` and the cast lanes), so
//! they agree bit for bit. The owned forms hoist the operator and kind
//! dispatch out of the lane loop, and take and give back lane storage
//! through a per-thread free list ([`recycle`]), so a warm vector loop does
//! not touch the heap.

use std::cell::RefCell;

use halide_ir::{BinOp, CmpOp, ScalarType};

/// A runtime value: one or more lanes of integers or floats.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Integer lanes (also used for unsigned and boolean values).
    Int(Vec<i64>),
    /// Floating-point lanes.
    Float(Vec<f64>),
}

/// An unboxed one-lane value: the register type of the compiled execution
/// engine.
///
/// [`Value`] heap-allocates a `Vec` even for scalars, which dominates the
/// interpreter's per-operation cost. `Scalar` is a plain `Copy` enum carrying
/// the same two kinds, and every operation on it is defined to be
/// **bit-identical** to the corresponding one-lane [`Value`] operation
/// (promotion to float when either side is float, floor division/modulo for
/// integers, the same cast wrapping/truncation rules), so the compiled
/// backend and the interpreting backend produce identical results.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scalar {
    /// An integer (also unsigned and boolean values, as in [`Value::Int`]).
    Int(i64),
    /// A float.
    Float(f64),
}

impl Scalar {
    /// True for the float kind.
    pub fn is_float(self) -> bool {
        matches!(self, Scalar::Float(_))
    }

    /// The value as an `f64` (exact for the integer kind, like
    /// [`Value::as_f64`]).
    #[inline]
    pub fn as_f64(self) -> f64 {
        match self {
            Scalar::Int(v) => v as f64,
            Scalar::Float(v) => v,
        }
    }

    /// The value as an `i64`, truncating floats toward zero (the semantics of
    /// [`Value::lane_int`]).
    #[inline]
    pub fn as_i64(self) -> i64 {
        match self {
            Scalar::Int(v) => v,
            Scalar::Float(v) => v as i64,
        }
    }

    /// The value interpreted as a boolean (non-zero is true, like
    /// [`Value::as_bool`]).
    #[inline]
    pub fn as_bool(self) -> bool {
        self.as_f64() != 0.0
    }

    /// Converts to a one-lane [`Value`] of the same kind.
    pub fn to_value(self) -> Value {
        match self {
            Scalar::Int(v) => Value::int(v),
            Scalar::Float(v) => Value::float(v),
        }
    }

    /// Casts to the given scalar type with exactly the semantics of
    /// [`Value::cast_to`] on a one-lane value.
    #[inline]
    pub fn cast_to(self, ty: ScalarType) -> Scalar {
        match ty {
            ScalarType::Float(32) => Scalar::Float(round_f32(self.as_f64())),
            ScalarType::Float(_) => Scalar::Float(self.as_f64()),
            ScalarType::UInt(1) => Scalar::Int(nonzero(self.as_f64())),
            ScalarType::UInt(bits) => Scalar::Int(self.trunc_i64() & uint_mask(bits)),
            ScalarType::Int(bits) => Scalar::Int(wrap_signed(self.trunc_i64(), bits)),
        }
    }

    /// The value as an `i64`, truncating floats toward zero (the semantics of
    /// `Value::to_int_lanes_trunc`, used by casts).
    #[inline]
    fn trunc_i64(self) -> i64 {
        match self {
            Scalar::Int(v) => v,
            Scalar::Float(v) => v.trunc() as i64,
        }
    }
}

/// Applies a binary arithmetic operator to two scalars with exactly the
/// semantics of [`binary_op`] on one-lane values: promote to float when
/// either side is float, floor division/modulo for integers.
#[inline]
pub fn scalar_binary_op(op: BinOp, a: Scalar, b: Scalar) -> Scalar {
    match (a, b) {
        (Scalar::Int(x), Scalar::Int(y)) => Scalar::Int(int_bin(op, x, y)),
        _ => Scalar::Float(float_bin(op, a.as_f64(), b.as_f64())),
    }
}

/// Whether a comparison operator holds for an ordering — the single
/// definition behind every scalar, borrowing, and owned comparison path.
#[inline]
fn cmp_holds(op: CmpOp, ord: std::cmp::Ordering) -> bool {
    match op {
        CmpOp::Eq => ord == std::cmp::Ordering::Equal,
        CmpOp::Ne => ord != std::cmp::Ordering::Equal,
        CmpOp::Lt => ord == std::cmp::Ordering::Less,
        CmpOp::Le => ord != std::cmp::Ordering::Greater,
        CmpOp::Gt => ord == std::cmp::Ordering::Greater,
        CmpOp::Ge => ord != std::cmp::Ordering::Less,
    }
}

/// Applies a comparison to two scalars, producing a boolean (0/1) scalar —
/// the one-lane form of [`compare_op`].
#[inline]
pub fn scalar_compare_op(op: CmpOp, a: Scalar, b: Scalar) -> Scalar {
    Scalar::Int(match (a, b) {
        (Scalar::Int(x), Scalar::Int(y)) => int_cmp(op, x, y),
        _ => float_cmp(op, a.as_f64(), b.as_f64()),
    })
}

/// One integer comparison lane (0/1).
#[inline(always)]
fn int_cmp(op: CmpOp, x: i64, y: i64) -> i64 {
    cmp_holds(op, x.cmp(&y)) as i64
}

/// One float comparison lane (0/1): an unordered pair (a NaN) compares as
/// `Greater`.
#[inline(always)]
fn float_cmp(op: CmpOp, x: f64, y: f64) -> i64 {
    cmp_holds(op, x.partial_cmp(&y).unwrap_or(std::cmp::Ordering::Greater)) as i64
}

/// The `f32` cast lane: round to single precision, held as `f64`.
#[inline(always)]
fn round_f32(x: f64) -> f64 {
    x as f32 as f64
}

/// The `bool` cast lane: non-zero is 1.
#[inline(always)]
fn nonzero(x: f64) -> i64 {
    (x != 0.0) as i64
}

/// The mask an unsigned cast of `bits` bits keeps.
#[inline(always)]
fn uint_mask(bits: u8) -> i64 {
    if bits >= 63 {
        -1
    } else {
        (1i64 << bits) - 1
    }
}

/// The signed cast lane: wrap `v` into `bits` bits, sign-extended.
#[inline(always)]
fn wrap_signed(v: i64, bits: u8) -> i64 {
    let shift = 64 - bits as u32;
    if shift == 0 {
        v
    } else {
        (v << shift) >> shift
    }
}

impl Value {
    /// A one-lane integer.
    pub fn int(v: i64) -> Value {
        Value::Int(vec![v])
    }

    /// A one-lane float.
    pub fn float(v: f64) -> Value {
        Value::Float(vec![v])
    }

    /// A one-lane boolean (stored as 0/1).
    pub fn bool(v: bool) -> Value {
        Value::Int(vec![v as i64])
    }

    /// Number of lanes.
    pub fn lanes(&self) -> usize {
        match self {
            Value::Int(v) => v.len(),
            Value::Float(v) => v.len(),
        }
    }

    /// True if this is a single-lane value.
    pub fn is_scalar(&self) -> bool {
        self.lanes() == 1
    }

    /// The single integer lane.
    ///
    /// # Panics
    ///
    /// Panics if the value is not a one-lane integer.
    pub fn as_int(&self) -> i64 {
        match self {
            Value::Int(v) if v.len() == 1 => v[0],
            other => panic!("expected a scalar integer, got {other:?}"),
        }
    }

    /// The single lane as an `f64` (works for both kinds).
    ///
    /// # Panics
    ///
    /// Panics if the value is not one-lane.
    pub fn as_f64(&self) -> f64 {
        match self {
            Value::Int(v) if v.len() == 1 => v[0] as f64,
            Value::Float(v) if v.len() == 1 => v[0],
            other => panic!("expected a scalar, got {other:?}"),
        }
    }

    /// The single lane interpreted as a boolean.
    ///
    /// # Panics
    ///
    /// Panics if the value is not one-lane.
    pub fn as_bool(&self) -> bool {
        self.as_f64() != 0.0
    }

    /// Lane `i` as an `i64`, truncating floats.
    pub fn lane_int(&self, i: usize) -> i64 {
        match self {
            Value::Int(v) => v[i.min(v.len() - 1)],
            Value::Float(v) => v[i.min(v.len() - 1)] as i64,
        }
    }

    /// Lane `i` as an `f64`.
    pub fn lane_f64(&self, i: usize) -> f64 {
        match self {
            Value::Int(v) => v[i.min(v.len() - 1)] as f64,
            Value::Float(v) => v[i.min(v.len() - 1)],
        }
    }

    /// All lanes as `i64`.
    pub fn to_int_lanes(&self) -> Vec<i64> {
        match self {
            Value::Int(v) => v.clone(),
            Value::Float(v) => v.iter().map(|x| *x as i64).collect(),
        }
    }

    /// All lanes as `f64`.
    pub fn to_f64_lanes(&self) -> Vec<f64> {
        match self {
            Value::Int(v) => v.iter().map(|x| *x as f64).collect(),
            Value::Float(v) => v.clone(),
        }
    }

    /// If this value has exactly one lane, returns it as an unboxed
    /// [`Scalar`] of the same kind.
    pub fn as_scalar(&self) -> Option<Scalar> {
        match self {
            Value::Int(v) if v.len() == 1 => Some(Scalar::Int(v[0])),
            Value::Float(v) if v.len() == 1 => Some(Scalar::Float(v[0])),
            _ => None,
        }
    }

    /// Broadcasts a scalar to `lanes` lanes (no-op if already that wide).
    pub fn broadcast(&self, lanes: usize) -> Value {
        if self.lanes() == lanes {
            return self.clone();
        }
        match self {
            Value::Int(v) => Value::Int(vec![v[0]; lanes]),
            Value::Float(v) => Value::Float(vec![v[0]; lanes]),
        }
    }

    /// Casts every lane to the given scalar type, wrapping integers into the
    /// target width (matching hardware conversion behaviour) and truncating
    /// floats toward zero when converting to integers.
    pub fn cast_to(&self, ty: ScalarType) -> Value {
        match ty {
            ScalarType::Float(32) => {
                Value::Float(self.to_f64_lanes().into_iter().map(round_f32).collect())
            }
            ScalarType::Float(_) => Value::Float(self.to_f64_lanes()),
            ScalarType::UInt(1) => {
                Value::Int(self.to_f64_lanes().into_iter().map(nonzero).collect())
            }
            ScalarType::UInt(bits) => {
                let mask = uint_mask(bits);
                Value::Int(self.to_int_lanes_trunc().iter().map(|v| v & mask).collect())
            }
            ScalarType::Int(bits) => Value::Int(
                self.to_int_lanes_trunc()
                    .into_iter()
                    .map(|v| wrap_signed(v, bits))
                    .collect(),
            ),
        }
    }

    fn to_int_lanes_trunc(&self) -> Vec<i64> {
        match self {
            Value::Int(v) => v.clone(),
            Value::Float(v) => v.iter().map(|x| x.trunc() as i64).collect(),
        }
    }
}

fn zip_lanes(a: &Value, b: &Value) -> usize {
    a.lanes().max(b.lanes())
}

/// The float form of one binary operation lane (shared by every float path,
/// so all of them are bit-identical by construction).
#[inline(always)]
fn float_bin(op: BinOp, x: f64, y: f64) -> f64 {
    match op {
        BinOp::Add => x + y,
        BinOp::Sub => x - y,
        BinOp::Mul => x * y,
        BinOp::Div => x / y,
        BinOp::Mod => x - y * (x / y).floor(),
        BinOp::Min => x.min(y),
        BinOp::Max => x.max(y),
    }
}

/// The integer form of one binary operation lane (floor division/modulo,
/// wrapping arithmetic).
#[inline(always)]
fn int_bin(op: BinOp, x: i64, y: i64) -> i64 {
    match op {
        BinOp::Add => x.wrapping_add(y),
        BinOp::Sub => x.wrapping_sub(y),
        BinOp::Mul => x.wrapping_mul(y),
        BinOp::Div => halide_ir::simplify::div_floor(x, y),
        BinOp::Mod => halide_ir::simplify::mod_floor(x, y),
        BinOp::Min => x.min(y),
        BinOp::Max => x.max(y),
    }
}

/// Applies a binary arithmetic operator lane-wise, promoting to float when
/// either side is float and broadcasting the scalar side when lane counts
/// differ. Integer division/modulo use the floor semantics of the IR.
pub fn binary_op(op: BinOp, a: &Value, b: &Value) -> Value {
    let lanes = zip_lanes(a, b);
    let float = matches!(a, Value::Float(_)) || matches!(b, Value::Float(_));
    if float {
        let av = a.broadcast(lanes).to_f64_lanes();
        let bv = b.broadcast(lanes).to_f64_lanes();
        Value::Float(
            av.iter()
                .zip(bv.iter())
                .map(|(x, y)| float_bin(op, *x, *y))
                .collect(),
        )
    } else {
        let av = a.broadcast(lanes).to_int_lanes();
        let bv = b.broadcast(lanes).to_int_lanes();
        Value::Int(
            av.iter()
                .zip(bv.iter())
                .map(|(x, y)| int_bin(op, *x, *y))
                .collect(),
        )
    }
}

/// Applies a comparison lane-wise, producing a boolean (0/1) vector.
pub fn compare_op(op: CmpOp, a: &Value, b: &Value) -> Value {
    let lanes = zip_lanes(a, b);
    let float = matches!(a, Value::Float(_)) || matches!(b, Value::Float(_));
    let lanes_out: Vec<i64> = if float {
        let av = a.broadcast(lanes).to_f64_lanes();
        let bv = b.broadcast(lanes).to_f64_lanes();
        av.iter()
            .zip(bv.iter())
            .map(|(x, y)| float_cmp(op, *x, *y))
            .collect()
    } else {
        let av = a.broadcast(lanes).to_int_lanes();
        let bv = b.broadcast(lanes).to_int_lanes();
        av.iter()
            .zip(bv.iter())
            .map(|(x, y)| int_cmp(op, *x, *y))
            .collect()
    };
    Value::Int(lanes_out)
}

/// Lane-wise select.
pub fn select_op(cond: &Value, t: &Value, f: &Value) -> Value {
    let lanes = cond.lanes().max(t.lanes()).max(f.lanes());
    let c = cond.broadcast(lanes);
    let float = matches!(t, Value::Float(_)) || matches!(f, Value::Float(_));
    if float {
        let tv = t.broadcast(lanes).to_f64_lanes();
        let fv = f.broadcast(lanes).to_f64_lanes();
        Value::Float(
            (0..lanes)
                .map(|i| if c.lane_int(i) != 0 { tv[i] } else { fv[i] })
                .collect(),
        )
    } else {
        let tv = t.broadcast(lanes).to_int_lanes();
        let fv = f.broadcast(lanes).to_int_lanes();
        Value::Int(
            (0..lanes)
                .map(|i| if c.lane_int(i) != 0 { tv[i] } else { fv[i] })
                .collect(),
        )
    }
}

// ---- the per-thread free list -----------------------------------------------
//
// The owned operations below take the lane storage of their results from,
// and give consumed operands' storage back to, a bounded free list of the
// calling thread. It is per thread rather than per machine because parallel
// loops copy the compiled engine's machine once per task, and a task's
// copy would start with an empty list.

/// Most vectors of each kind, and most boxes, one thread's free list keeps.
const FREE_VECTORS: usize = 64;

/// Widest vector, in lanes, the free list keeps; wider storage is freed.
const FREE_MAX_LANES: usize = 4096;

struct FreeList {
    ints: Vec<Vec<i64>>,
    floats: Vec<Vec<f64>>,
    /// Empty boxes: the box allocations are what is recycled here.
    #[allow(clippy::vec_box)]
    boxes: Vec<Box<Value>>,
}

thread_local! {
    static FREE: RefCell<FreeList> = const {
        RefCell::new(FreeList {
            ints: Vec::new(),
            floats: Vec::new(),
            boxes: Vec::new(),
        })
    };
}

/// Runs `f` on this thread's free list; `None` while the thread is being
/// torn down (callers then use the heap).
#[inline]
fn with_free<R>(f: impl FnOnce(&mut FreeList) -> R) -> Option<R> {
    FREE.try_with(|list| f(&mut list.borrow_mut())).ok()
}

impl FreeList {
    /// Keeps a value's lane storage if it is worth keeping and there is room.
    #[inline]
    fn keep(&mut self, v: Value) {
        fn keep<T>(list: &mut Vec<Vec<T>>, mut v: Vec<T>) {
            if v.capacity() != 0 && v.capacity() <= FREE_MAX_LANES && list.len() < FREE_VECTORS {
                v.clear();
                list.push(v);
            }
        }
        match v {
            Value::Int(v) => keep(&mut self.ints, v),
            Value::Float(v) => keep(&mut self.floats, v),
        }
    }
}

/// Empty integer lanes with room for `lanes`, from this thread's free list.
pub fn int_lanes(lanes: usize) -> Vec<i64> {
    let mut v = with_free(|f| f.ints.pop()).flatten().unwrap_or_default();
    v.reserve(lanes);
    v
}

/// Empty float lanes with room for `lanes`, from this thread's free list.
pub fn float_lanes(lanes: usize) -> Vec<f64> {
    let mut v = with_free(|f| f.floats.pop()).flatten().unwrap_or_default();
    v.reserve(lanes);
    v
}

/// Gives a value's lane storage back to this thread's free list.
pub fn recycle(v: Value) {
    with_free(|f| f.keep(v));
}

/// Boxes `v`, taking the box from this thread's free list.
pub fn boxed(v: Value) -> Box<Value> {
    match with_free(|f| f.boxes.pop()).flatten() {
        Some(mut b) => {
            *b = v;
            b
        }
        None => Box::new(v),
    }
}

/// Gives a box from [`boxed`] back to this thread's free list, and the lane
/// storage it holds with it.
pub fn recycle_box(mut b: Box<Value>) {
    let v = std::mem::replace(&mut *b, Value::Int(Vec::new()));
    with_free(|f| {
        f.keep(v);
        if f.boxes.len() < FREE_VECTORS {
            f.boxes.push(b);
        }
    });
}

impl Value {
    /// A copy of this value in storage from this thread's free list.
    pub fn pooled_copy(&self) -> Value {
        match self {
            Value::Int(v) => {
                let mut out = int_lanes(v.len());
                out.extend_from_slice(v);
                Value::Int(out)
            }
            Value::Float(v) => {
                let mut out = float_lanes(v.len());
                out.extend_from_slice(v);
                Value::Float(out)
            }
        }
    }

    /// This value's storage as empty integer lanes, ready to be filled: kept
    /// when it already holds integers, otherwise exchanged through this
    /// thread's free list.
    pub(crate) fn ints_mut(&mut self) -> &mut Vec<i64> {
        if !matches!(self, Value::Int(v) if v.capacity() != 0) {
            recycle(std::mem::replace(self, Value::Int(int_lanes(0))));
        }
        match self {
            Value::Int(v) => {
                v.clear();
                v
            }
            Value::Float(_) => unreachable!("just replaced by integer lanes"),
        }
    }

    /// This value's storage as empty float lanes (see [`Value::ints_mut`]).
    pub(crate) fn floats_mut(&mut self) -> &mut Vec<f64> {
        if !matches!(self, Value::Float(v) if v.capacity() != 0) {
            recycle(std::mem::replace(self, Value::Float(float_lanes(0))));
        }
        match self {
            Value::Float(v) => {
                v.clear();
                v
            }
            Value::Int(_) => unreachable!("just replaced by float lanes"),
        }
    }
}

/// `lanes` integer lanes holding `x`, in storage from the free list.
pub fn int_splat(x: i64, lanes: usize) -> Value {
    let mut v = int_lanes(lanes);
    v.resize(lanes, x);
    Value::Int(v)
}

/// `lanes` float lanes holding `x`, in storage from the free list.
pub fn float_splat(x: f64, lanes: usize) -> Value {
    let mut v = float_lanes(lanes);
    v.resize(lanes, x);
    Value::Float(v)
}

// ---- monomorphized lane kernels --------------------------------------------
//
// Each owned operation matches on its operator once and calls a kernel
// inlined for that operator, so the lane loops carry no dispatch: the
// operator is a constant in each copy, and each operand's width (full or
// broadcast) and kind are settled before the loop.

/// One operand of a `lanes`-wide kernel: the full-width lanes, or the one
/// lane every lane reads — lane 0 of an operand of any other width, the
/// [`Value::broadcast`] rule.
#[derive(Clone, Copy)]
enum Src<'a, T> {
    Lanes(&'a [T]),
    Splat(T),
}

impl<'a, T: Copy> Src<'a, T> {
    #[inline(always)]
    fn of(v: &'a [T], lanes: usize) -> Self {
        if v.len() == lanes {
            Src::Lanes(v)
        } else {
            Src::Splat(v[0])
        }
    }
}

/// `dst[i] = f(dst[i], src[i])` over every lane of `dst`.
#[inline(always)]
fn zip_in_place<T: Copy, U: Copy>(dst: &mut [T], src: Src<'_, U>, f: impl Fn(T, U) -> T) {
    match src {
        Src::Lanes(s) => {
            let s = &s[..dst.len()];
            for (x, y) in dst.iter_mut().zip(s) {
                *x = f(*x, *y);
            }
        }
        Src::Splat(y) => {
            for x in dst.iter_mut() {
                *x = f(*x, y);
            }
        }
    }
}

/// `out = [f(a[i], b[i])]` over `lanes` lanes (`out` is empty on entry).
#[inline(always)]
fn zip_into<A: Copy, B: Copy, R: Copy>(
    out: &mut Vec<R>,
    a: Src<'_, A>,
    b: Src<'_, B>,
    lanes: usize,
    f: impl Fn(A, B) -> R,
) {
    match (a, b) {
        (Src::Lanes(a), Src::Lanes(b)) => out.extend(a.iter().zip(b).map(|(x, y)| f(*x, *y))),
        (Src::Lanes(a), Src::Splat(y)) => out.extend(a.iter().map(|x| f(*x, y))),
        (Src::Splat(x), Src::Lanes(b)) => out.extend(b.iter().map(|y| f(x, *y))),
        (Src::Splat(x), Src::Splat(y)) => out.resize(lanes, f(x, y)),
    }
}

/// Runs `$body` once per operator variant with `$o` bound to it as a
/// constant, so every kernel `$body` inlines is specialized to one operator.
macro_rules! per_op {
    ($op:expr, $o:ident => $body:expr, $($variant:path),+ $(,)?) => {
        match $op {
            $($variant => {
                let $o = $variant;
                $body
            })+
        }
    };
}

/// [`binary_op`] taking its operands by value: computed in place in a
/// full-width operand of the result's kind where there is one, the other
/// operand's storage going back to the free list. Bit-identical to
/// [`binary_op`] (the lane formulas are shared); the compiled execution
/// engine's vector path runs through this.
pub fn binary_op_owned(op: BinOp, a: Value, b: Value) -> Value {
    let lanes = zip_lanes(&a, &b);
    per_op!(op, o => binary_kernel(a, b, lanes, |x, y| int_bin(o, x, y), |x, y| float_bin(o, x, y)),
        BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div, BinOp::Mod, BinOp::Min, BinOp::Max)
}

/// The body of [`binary_op_owned`] for one operator.
#[inline(always)]
fn binary_kernel(
    a: Value,
    b: Value,
    lanes: usize,
    int: impl Fn(i64, i64) -> i64,
    float: impl Fn(f64, f64) -> f64,
) -> Value {
    match (a, b) {
        (Value::Int(mut x), y @ Value::Int(_)) if x.len() == lanes => {
            if let Value::Int(yv) = &y {
                zip_in_place(&mut x, Src::of(yv, lanes), &int);
            }
            recycle(y);
            Value::Int(x)
        }
        (x @ Value::Int(_), Value::Int(mut y)) => {
            if let Value::Int(xv) = &x {
                zip_in_place(&mut y, Src::of(xv, lanes), |y, x| int(x, y));
            }
            recycle(x);
            Value::Int(y)
        }
        (Value::Float(mut x), y) if x.len() == lanes => {
            match &y {
                Value::Float(yv) => zip_in_place(&mut x, Src::of(yv, lanes), &float),
                Value::Int(yv) => {
                    zip_in_place(&mut x, Src::of(yv, lanes), |x, y| float(x, y as f64))
                }
            }
            recycle(y);
            Value::Float(x)
        }
        (x, Value::Float(mut y)) if y.len() == lanes => {
            match &x {
                Value::Float(xv) => zip_in_place(&mut y, Src::of(xv, lanes), |y, x| float(x, y)),
                Value::Int(xv) => {
                    zip_in_place(&mut y, Src::of(xv, lanes), |y, x| float(x as f64, y))
                }
            }
            recycle(x);
            Value::Float(y)
        }
        // A narrow float operand against full-width integer lanes.
        (x, y) => {
            let mut out = float_lanes(lanes);
            with_floats(&x, lanes, |sx| {
                with_floats(&y, lanes, |sy| zip_into(&mut out, sx, sy, lanes, &float))
            });
            recycle(x);
            recycle(y);
            Value::Float(out)
        }
    }
}

/// [`compare_op`] taking its operands by value: the integer/integer case
/// writes the 0/1 result into a full-width operand's storage, the float
/// cases into storage from the free list. Bit-identical to [`compare_op`].
pub fn compare_op_owned(op: CmpOp, a: Value, b: Value) -> Value {
    let lanes = zip_lanes(&a, &b);
    per_op!(op, o => compare_kernel(a, b, lanes, |x, y| int_cmp(o, x, y), |x, y| float_cmp(o, x, y)),
        CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge)
}

/// The body of [`compare_op_owned`] for one operator.
#[inline(always)]
fn compare_kernel(
    a: Value,
    b: Value,
    lanes: usize,
    int: impl Fn(i64, i64) -> i64,
    float: impl Fn(f64, f64) -> i64,
) -> Value {
    match (a, b) {
        (Value::Int(mut x), y @ Value::Int(_)) if x.len() == lanes => {
            if let Value::Int(yv) = &y {
                zip_in_place(&mut x, Src::of(yv, lanes), &int);
            }
            recycle(y);
            Value::Int(x)
        }
        (x @ Value::Int(_), Value::Int(mut y)) => {
            if let Value::Int(xv) = &x {
                zip_in_place(&mut y, Src::of(xv, lanes), |y, x| int(x, y));
            }
            recycle(x);
            Value::Int(y)
        }
        (x, y) => {
            let mut out = int_lanes(lanes);
            with_floats(&x, lanes, |sx| {
                with_floats(&y, lanes, |sy| zip_into(&mut out, sx, sy, lanes, &float))
            });
            recycle(x);
            recycle(y);
            Value::Int(out)
        }
    }
}

/// [`select_op`] taking the arms by value: a whole-register **mask and
/// blend**. When one arm already has the result's kind and width its storage
/// is reused and the lanes the mask gives the other arm are overwritten in
/// place; otherwise the result takes storage from the free list. The arm
/// not kept goes back to the free list. Bit-identical to [`select_op`] (both
/// arms have already been evaluated, so there is no branch to skip).
pub fn select_op_owned(cond: &Value, t: Value, f: Value) -> Value {
    let lanes = cond.lanes().max(t.lanes()).max(f.lanes());
    let float = matches!(t, Value::Float(_)) || matches!(f, Value::Float(_));
    with_mask(cond, lanes, |mask| {
        if float {
            match (t, f) {
                (Value::Float(mut tv), f) if tv.len() == lanes => {
                    with_floats(&f, lanes, |other| blend(&mut tv, mask, other, true));
                    recycle(f);
                    Value::Float(tv)
                }
                (t, Value::Float(mut fv)) if fv.len() == lanes => {
                    with_floats(&t, lanes, |other| blend(&mut fv, mask, other, false));
                    recycle(t);
                    Value::Float(fv)
                }
                (t, f) => {
                    let mut out = float_lanes(lanes);
                    with_floats(&t, lanes, |t| splat_or_copy(&mut out, t, lanes));
                    with_floats(&f, lanes, |other| blend(&mut out, mask, other, true));
                    recycle(t);
                    recycle(f);
                    Value::Float(out)
                }
            }
        } else {
            match (t, f) {
                (Value::Int(mut tv), Value::Int(fv)) if tv.len() == lanes => {
                    blend(&mut tv, mask, Src::of(&fv, lanes), true);
                    recycle(Value::Int(fv));
                    Value::Int(tv)
                }
                (Value::Int(tv), Value::Int(mut fv)) if fv.len() == lanes => {
                    blend(&mut fv, mask, Src::of(&tv, lanes), false);
                    recycle(Value::Int(tv));
                    Value::Int(fv)
                }
                (Value::Int(tv), Value::Int(fv)) => {
                    let mut out = int_lanes(lanes);
                    splat_or_copy(&mut out, Src::of(&tv, lanes), lanes);
                    blend(&mut out, mask, Src::of(&fv, lanes), true);
                    recycle(Value::Int(tv));
                    recycle(Value::Int(fv));
                    Value::Int(out)
                }
                _ => unreachable!("a select with no float arm has two integer arms"),
            }
        }
    })
}

/// Runs `k` on the condition's lanes as integers — a float condition (rare)
/// truncated first, as [`Value::lane_int`] reads it.
#[inline(always)]
fn with_mask<R>(cond: &Value, lanes: usize, k: impl FnOnce(Src<'_, i64>) -> R) -> R {
    match cond {
        Value::Int(c) => k(Src::of(c, lanes)),
        Value::Float(c) => {
            let mut ints = int_lanes(c.len());
            ints.extend(c.iter().map(|x| *x as i64));
            let r = k(Src::of(&ints, lanes));
            recycle(Value::Int(ints));
            r
        }
    }
}

/// Runs `k` on an arm's lanes as floats — an integer arm converted first.
#[inline(always)]
fn with_floats<R>(v: &Value, lanes: usize, k: impl FnOnce(Src<'_, f64>) -> R) -> R {
    match v {
        Value::Float(x) => k(Src::of(x, lanes)),
        Value::Int(x) => {
            let mut floats = float_lanes(x.len());
            floats.extend(x.iter().map(|x| *x as f64));
            let r = k(Src::of(&floats, lanes));
            recycle(Value::Float(floats));
            r
        }
    }
}

/// Fills the empty `out` with `src`'s `lanes` lanes.
#[inline(always)]
fn splat_or_copy<T: Copy>(out: &mut Vec<T>, src: Src<'_, T>, lanes: usize) {
    match src {
        Src::Lanes(s) => out.extend_from_slice(s),
        Src::Splat(x) => out.resize(lanes, x),
    }
}

/// Overwrites the lanes of `dst` (one arm of a select) that the mask gives
/// to the other arm.
#[inline(always)]
fn blend<T: Copy>(dst: &mut [T], mask: Src<'_, i64>, other: Src<'_, T>, dst_is_true_arm: bool) {
    let n = dst.len();
    match (mask, other) {
        (Src::Lanes(m), Src::Lanes(o)) => {
            for ((x, c), y) in dst.iter_mut().zip(&m[..n]).zip(&o[..n]) {
                if (*c != 0) != dst_is_true_arm {
                    *x = *y;
                }
            }
        }
        (Src::Lanes(m), Src::Splat(y)) => {
            for (x, c) in dst.iter_mut().zip(&m[..n]) {
                if (*c != 0) != dst_is_true_arm {
                    *x = y;
                }
            }
        }
        (Src::Splat(c), other) => {
            if (c != 0) != dst_is_true_arm {
                match other {
                    Src::Lanes(o) => dst.copy_from_slice(&o[..n]),
                    Src::Splat(y) => dst.fill(y),
                }
            }
        }
    }
}

/// [`Value::cast_to`] taking the value by ownership: computed in place when
/// the value already has the target's kind, otherwise into storage from the
/// free list (the value's own storage going back). Bit-identical to
/// [`Value::cast_to`].
pub fn cast_owned(v: Value, ty: ScalarType) -> Value {
    match ty {
        ScalarType::Float(32) => map_f64_owned(v, round_f32),
        ScalarType::Float(_) => map_f64_owned(v, |x| x),
        ScalarType::UInt(1) => match v {
            Value::Int(mut x) => {
                for x in x.iter_mut() {
                    *x = nonzero(*x as f64);
                }
                Value::Int(x)
            }
            Value::Float(x) => {
                let mut out = int_lanes(x.len());
                out.extend(x.iter().map(|x| nonzero(*x)));
                recycle(Value::Float(x));
                Value::Int(out)
            }
        },
        ScalarType::UInt(bits) => {
            let mask = uint_mask(bits);
            map_trunc_owned(v, |x| x & mask)
        }
        ScalarType::Int(bits) => map_trunc_owned(v, |x| wrap_signed(x, bits)),
    }
}

/// `f` over every lane read as `f64`, giving float lanes: in place for a
/// float value. (Also the lane loop of the float intrinsics.)
#[inline]
pub fn map_f64_owned(v: Value, f: impl Fn(f64) -> f64) -> Value {
    match v {
        Value::Float(mut x) => {
            for x in x.iter_mut() {
                *x = f(*x);
            }
            Value::Float(x)
        }
        Value::Int(x) => {
            let mut out = float_lanes(x.len());
            out.extend(x.iter().map(|x| f(*x as f64)));
            recycle(Value::Int(x));
            Value::Float(out)
        }
    }
}

/// `f` over every lane read as an integer (floats truncated toward zero, the
/// cast rule), giving integer lanes: in place for an integer value.
#[inline]
fn map_trunc_owned(v: Value, f: impl Fn(i64) -> i64) -> Value {
    match v {
        Value::Int(mut x) => {
            for x in x.iter_mut() {
                *x = f(*x);
            }
            Value::Int(x)
        }
        Value::Float(x) => {
            let mut out = int_lanes(x.len());
            out.extend(x.iter().map(|x| f(x.trunc() as i64)));
            recycle(Value::Float(x));
            Value::Int(out)
        }
    }
}

/// `f(a[i], b[i])` over `a`'s lanes read as `f64` — `b` broadcast to `a`'s
/// width — giving float lanes, in place when `a` is float: the lane loop of
/// the two-argument float intrinsics.
pub fn zip_f64_owned(a: Value, b: Value, f: impl Fn(f64, f64) -> f64) -> Value {
    let lanes = a.lanes();
    let a = match a {
        Value::Float(x) => x,
        Value::Int(x) => {
            let mut out = float_lanes(lanes);
            out.extend(x.iter().map(|x| *x as f64));
            recycle(Value::Int(x));
            out
        }
    };
    let mut a = a;
    match &b {
        Value::Float(y) => zip_in_place(&mut a, Src::of(y, lanes), &f),
        Value::Int(y) => zip_in_place(&mut a, Src::of(y, lanes), |x, y| f(x, y as f64)),
    }
    recycle(b);
    Value::Float(a)
}

/// Lane-wise absolute value, kind-preserving, in place.
pub fn abs_owned(v: Value) -> Value {
    match v {
        Value::Int(mut x) => {
            for x in x.iter_mut() {
                *x = x.abs();
            }
            Value::Int(x)
        }
        Value::Float(mut x) => {
            for x in x.iter_mut() {
                *x = x.abs();
            }
            Value::Float(x)
        }
    }
}

/// Lane-wise logical negation taking its operand by value: integer lanes are
/// negated in place. Bit-identical to mapping `(lane == 0) as i64` over
/// [`Value::to_int_lanes`].
pub fn not_op_owned(v: Value) -> Value {
    match v {
        Value::Int(mut lanes) => {
            for x in lanes.iter_mut() {
                *x = (*x == 0) as i64;
            }
            Value::Int(lanes)
        }
        Value::Float(lanes) => {
            let mut out = int_lanes(lanes.len());
            out.extend(lanes.iter().map(|x| (*x as i64 == 0) as i64));
            recycle(Value::Float(lanes));
            Value::Int(out)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_accessors() {
        assert_eq!(Value::int(3).as_int(), 3);
        assert_eq!(Value::float(2.5).as_f64(), 2.5);
        assert!(Value::bool(true).as_bool());
        assert!(Value::int(7).is_scalar());
        assert_eq!(Value::Int(vec![1, 2, 3]).lanes(), 3);
    }

    #[test]
    fn arithmetic_with_broadcast() {
        let v = Value::Int(vec![1, 2, 3, 4]);
        let s = Value::int(10);
        let sum = binary_op(BinOp::Add, &v, &s);
        assert_eq!(sum, Value::Int(vec![11, 12, 13, 14]));
        let prod = binary_op(BinOp::Mul, &s, &v);
        assert_eq!(prod, Value::Int(vec![10, 20, 30, 40]));
    }

    #[test]
    fn float_promotion() {
        let a = Value::int(3);
        let b = Value::float(0.5);
        assert_eq!(binary_op(BinOp::Add, &a, &b), Value::Float(vec![3.5]));
        assert_eq!(
            binary_op(BinOp::Div, &a, &Value::int(2)),
            Value::Int(vec![1])
        );
        assert_eq!(
            binary_op(BinOp::Div, &Value::int(-3), &Value::int(2)),
            Value::Int(vec![-2]),
            "integer division rounds toward negative infinity"
        );
    }

    #[test]
    fn comparisons_and_select() {
        let a = Value::Int(vec![1, 5, 3]);
        let b = Value::int(3);
        let lt = compare_op(CmpOp::Lt, &a, &b);
        assert_eq!(lt, Value::Int(vec![1, 0, 0]));
        let sel = select_op(&lt, &Value::int(100), &a);
        assert_eq!(sel, Value::Int(vec![100, 5, 3]));
        let ge = compare_op(CmpOp::Ge, &Value::float(1.5), &Value::float(1.5));
        assert_eq!(ge, Value::Int(vec![1]));
    }

    #[test]
    fn casts_wrap_and_truncate() {
        let v = Value::Int(vec![300, -1, 255]);
        assert_eq!(
            v.cast_to(ScalarType::UInt(8)),
            Value::Int(vec![44, 255, 255])
        );
        assert_eq!(
            Value::float(3.9).cast_to(ScalarType::Int(32)),
            Value::Int(vec![3])
        );
        assert_eq!(
            Value::Int(vec![200]).cast_to(ScalarType::Int(8)),
            Value::Int(vec![-56])
        );
        assert_eq!(
            Value::float(2.0).cast_to(ScalarType::UInt(1)),
            Value::Int(vec![1])
        );
        assert_eq!(
            Value::int(7).cast_to(ScalarType::Float(32)),
            Value::Float(vec![7.0])
        );
    }

    #[test]
    fn min_max_and_mod() {
        let a = Value::Int(vec![-7, 7]);
        let b = Value::int(3);
        assert_eq!(binary_op(BinOp::Mod, &a, &b), Value::Int(vec![2, 1]));
        assert_eq!(binary_op(BinOp::Min, &a, &b), Value::Int(vec![-7, 3]));
        assert_eq!(binary_op(BinOp::Max, &a, &b), Value::Int(vec![3, 7]));
    }

    /// Bit-pattern equality of two values, so a NaN lane matches the same
    /// NaN and -0.0 does not match 0.0.
    fn same(a: &Value, b: &Value) -> bool {
        match (a, b) {
            (Value::Float(x), Value::Float(y)) => {
                x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
            }
            _ => a == b,
        }
    }

    /// Operands for the owned/borrowing agreement tests: scalars, the
    /// 4-lane vectors, a 2-lane one (neither scalar nor full width), and
    /// 64- and 128-lane vectors with NaN, ±0.0, ±inf and large integers
    /// among their lanes.
    fn operands() -> Vec<Value> {
        let wide_f = |n: usize| {
            Value::Float(
                (0..n)
                    .map(|k| match k % 8 {
                        0 => f64::NAN,
                        1 => -0.0,
                        2 => 0.0,
                        3 => f64::INFINITY,
                        4 => -(k as f64) * 0.75,
                        5 => 1e300,
                        _ => k as f64 * 1.5 - 20.0,
                    })
                    .collect(),
            )
        };
        let wide_i = |n: usize| {
            Value::Int(
                (0..n as i64)
                    .map(|k| match k % 5 {
                        0 => 0,
                        1 => i64::MAX - k,
                        2 => i64::MIN + k,
                        _ => k * 37 - 900,
                    })
                    .collect(),
            )
        };
        vec![
            Value::Int(vec![3]),
            Value::Int(vec![0]),
            Value::Int(vec![1, -2, 3, 40]),
            Value::Int(vec![7, 8]),
            Value::Float(vec![0.5]),
            Value::Float(vec![f64::NAN]),
            Value::Float(vec![-0.0]),
            Value::Float(vec![1.5, -2.25, 3.75, 4.0]),
            Value::Float(vec![9.0, -1.0]),
            wide_i(64),
            wide_f(64),
            wide_i(128),
            wide_f(128),
        ]
    }

    /// The owned (in-place) vector operations must agree bit-for-bit with
    /// the borrowing ones across every lane/kind combination.
    #[test]
    fn owned_ops_match_borrowing_ops() {
        let values = operands();
        for a in &values {
            for b in &values {
                for op in BinOp::ALL {
                    // Integer division by zero panics on both paths alike.
                    if matches!(op, BinOp::Div | BinOp::Mod)
                        && matches!(b, Value::Int(y) if y.contains(&0))
                        && matches!(a, Value::Int(_))
                    {
                        continue;
                    }
                    let slow = binary_op(op, a, b);
                    let fast = binary_op_owned(op, a.clone(), b.clone());
                    assert!(same(&fast, &slow), "owned {op:?} diverges on {a:?}, {b:?}");
                }
                let slow = Value::Float(
                    a.to_f64_lanes()
                        .iter()
                        .zip(b.broadcast(a.lanes()).to_f64_lanes())
                        .map(|(x, y)| x.atan2(y))
                        .collect(),
                );
                let fast = zip_f64_owned(a.clone(), b.clone(), f64::atan2);
                assert!(same(&fast, &slow), "owned atan2 diverges on {a:?}, {b:?}");
            }
            for ty in [
                ScalarType::Float(32),
                ScalarType::Float(64),
                ScalarType::Int(8),
                ScalarType::Int(16),
                ScalarType::Int(32),
                ScalarType::Int(64),
                ScalarType::UInt(1),
                ScalarType::UInt(8),
                ScalarType::UInt(16),
                ScalarType::UInt(32),
            ] {
                let (fast, slow) = (cast_owned(a.clone(), ty), a.cast_to(ty));
                assert!(same(&fast, &slow), "owned cast to {ty:?} diverges on {a:?}");
            }
            let slow = Value::Float(a.to_f64_lanes().into_iter().map(f64::sqrt).collect());
            assert!(same(&map_f64_owned(a.clone(), f64::sqrt), &slow));
            if !matches!(a, Value::Int(v) if v.contains(&i64::MIN)) {
                let slow = match a {
                    Value::Int(v) => Value::Int(v.iter().map(|x| x.abs()).collect()),
                    Value::Float(v) => Value::Float(v.iter().map(|x| x.abs()).collect()),
                };
                assert!(
                    same(&abs_owned(a.clone()), &slow),
                    "owned abs diverges on {a:?}"
                );
            }
        }
    }

    /// The owned select / compare / not forms must agree bit-for-bit with
    /// the borrowing ones across every lane/kind combination: this is the
    /// compiled backend's licence to mask-and-blend in place.
    #[test]
    fn owned_select_compare_not_match_borrowing_ops() {
        let values = operands();
        let mask =
            |n: usize, f: fn(usize) -> bool| Value::Int((0..n).map(|k| f(k) as i64).collect());
        let conds = [
            Value::Int(vec![1]),
            Value::Int(vec![0]),
            Value::Int(vec![1, 0, 0, 1]),
            Value::Int(vec![0, 1, 1, 0]),
            Value::Float(vec![1.0, 0.0, 2.0, 0.0]),
            mask(64, |k| k % 3 != 0),
            mask(128, |k| k % 5 < 2),
            Value::Float(
                (0..64)
                    .map(|k| if k % 2 == 0 { -0.0 } else { 0.5 })
                    .collect(),
            ),
        ];
        for c in &conds {
            for t in &values {
                for f in &values {
                    let slow = select_op(c, t, f);
                    let fast = select_op_owned(c, t.clone(), f.clone());
                    assert!(
                        same(&fast, &slow),
                        "owned select diverges on {c:?}, {t:?}, {f:?}"
                    );
                }
            }
        }
        for a in &values {
            for b in &values {
                for op in CmpOp::ALL {
                    let slow = compare_op(op, a, b);
                    let fast = compare_op_owned(op, a.clone(), b.clone());
                    assert_eq!(fast, slow, "owned {op:?} diverges on {a:?}, {b:?}");
                }
            }
            let slow = Value::Int(a.to_int_lanes().iter().map(|x| (*x == 0) as i64).collect());
            assert_eq!(not_op_owned(a.clone()), slow, "owned not diverges on {a:?}");
        }
    }

    /// Storage given back to the free list comes out again, cleared, and a
    /// value's storage changes kind through it.
    #[test]
    fn free_list_recycles_storage() {
        let v = int_lanes(64);
        let ptr = v.as_ptr();
        recycle(Value::Int(v));
        let again = int_lanes(64);
        assert_eq!((again.as_ptr(), again.len()), (ptr, 0));
        let mut f = Value::Int(again);
        f.floats_mut().extend([1.0, 2.0]);
        assert_eq!(f, Value::Float(vec![1.0, 2.0]));
        let back = int_lanes(1);
        assert_eq!(back.as_ptr(), ptr, "the integer storage went back");
        let b = boxed(Value::Int(vec![5]));
        let bptr: *const Value = &*b;
        recycle_box(b);
        let again = boxed(Value::Float(vec![]));
        assert!(std::ptr::eq(&*again, bptr));
    }

    /// Every scalar operation must agree bit-for-bit with the one-lane
    /// `Value` operation it shadows: this is the compiled backend's licence
    /// to use unboxed scalars.
    #[test]
    fn scalar_ops_match_one_lane_value_ops() {
        let samples = [
            Scalar::Int(0),
            Scalar::Int(7),
            Scalar::Int(-13),
            Scalar::Int(300),
            Scalar::Float(0.0),
            Scalar::Float(2.5),
            Scalar::Float(-3.9),
            Scalar::Float(1e9),
        ];
        // Bit-pattern equality, so NaN == NaN (0/0 must produce the *same*
        // NaN through both paths).
        let same = |fast: Value, slow: Value| match (&fast, &slow) {
            (Value::Float(a), Value::Float(b)) => {
                a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
            }
            _ => fast == slow,
        };
        for &a in &samples {
            for &b in &samples {
                for op in BinOp::ALL {
                    let fast = scalar_binary_op(op, a, b);
                    let slow = binary_op(op, &a.to_value(), &b.to_value());
                    assert!(
                        same(fast.to_value(), slow),
                        "binary {op:?} diverges on {a:?}, {b:?}"
                    );
                }
                for op in CmpOp::ALL {
                    let fast = scalar_compare_op(op, a, b);
                    let slow = compare_op(op, &a.to_value(), &b.to_value());
                    assert_eq!(
                        fast.to_value(),
                        slow,
                        "compare {op:?} diverges on {a:?}, {b:?}"
                    );
                }
            }
            for ty in [
                ScalarType::Float(32),
                ScalarType::Float(64),
                ScalarType::UInt(1),
                ScalarType::UInt(8),
                ScalarType::UInt(16),
                ScalarType::Int(8),
                ScalarType::Int(32),
                ScalarType::Int(64),
            ] {
                let fast = a.cast_to(ty);
                let slow = a.to_value().cast_to(ty);
                assert_eq!(fast.to_value(), slow, "cast to {ty:?} diverges on {a:?}");
            }
        }
        assert_eq!(Value::int(4).as_scalar(), Some(Scalar::Int(4)));
        assert_eq!(Value::Int(vec![1, 2]).as_scalar(), None);
        assert!(Scalar::Float(1.5).is_float());
        assert_eq!(Scalar::Float(-2.7).as_i64(), -2);
        assert!(Scalar::Int(1).as_bool() && !Scalar::Float(0.0).as_bool());
    }
}
