//! The evaluator: executes a lowered statement against runtime buffers.
//!
//! This is the repository's substitute for the paper's LLVM backend
//! (Sec. 4.6): every scheduling decision made by the compiler — loop
//! structure, producer/consumer interleaving, allocation lifetimes and sizes,
//! parallel / vectorized / unrolled loops — is preserved in the
//! statement and faithfully executed here, so schedule-to-schedule
//! comparisons exercise exactly the tradeoffs the paper studies.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use halide_ir::{CallType, Expr, ExprNode, ForKind, ScalarType, Scope, Stmt, StmtNode};
use halide_runtime::{
    binary_op, compare_op, select_op, Buffer, BufferPool, Counters, ThreadPool, Value,
};

use crate::compile::CIntrinsic;
use crate::error::{ExecError, Result};

/// Shared, thread-safe execution context for one realization.
pub struct Context {
    /// Worker pool for parallel loops.
    pub pool: ThreadPool,
    /// Instrumentation counters.
    pub counters: Counters,
    /// When false, the per-operation counters (arithmetic, loads, stores) are
    /// skipped to keep multi-threaded wall-clock measurements free of shared
    /// atomic contention. Structural counters (allocations, tasks) are always
    /// maintained.
    pub instrument: bool,
    /// When present, `Allocate` statements acquire their scratch buffers
    /// from this pool (and return them on scope exit) instead of hitting the
    /// allocator — the serving layer's steady-state zero-allocation path.
    pub buffer_pool: Option<Arc<BufferPool>>,
    /// When present, produce nests publish the currently-running Func to the
    /// sampling profiler, and scratch allocations are attributed to the Func
    /// whose storage they back. `None` (the default) keeps the hot path
    /// untouched: the cost of an unattached profiler is one pointer-sized
    /// branch per produce entry, never per operation.
    pub profiler: Option<Arc<halide_trace::Profiler>>,
    error: Mutex<Option<ExecError>>,
    failed: AtomicBool,
}

impl Context {
    /// Creates a context with the given pool and instrumentation setting.
    pub fn new(pool: ThreadPool, instrument: bool) -> Self {
        Context {
            pool,
            counters: Counters::new(),
            instrument,
            buffer_pool: None,
            profiler: None,
            error: Mutex::new(None),
            failed: AtomicBool::new(false),
        }
    }

    /// Configures the pool `Allocate` statements draw scratch buffers from
    /// (`None` allocates fresh buffers, the default).
    pub fn with_buffer_pool(mut self, pool: Option<Arc<BufferPool>>) -> Self {
        self.buffer_pool = pool;
        self
    }

    /// Attaches a sampling profiler; produce nests will publish the current
    /// Func and scratch allocations will be attributed to it.
    pub fn with_profiler(mut self, profiler: Option<Arc<halide_trace::Profiler>>) -> Self {
        self.profiler = profiler;
        self
    }

    /// Creates a zero-filled scratch buffer, recycled from the configured
    /// buffer pool when one is set (recording the hit or miss in the
    /// counters), freshly allocated otherwise.
    pub(crate) fn alloc_scratch(&self, ty: ScalarType, extents: &[i64]) -> Buffer {
        match &self.buffer_pool {
            Some(pool) => {
                let (buf, hit) = pool.acquire_raw(ty, extents);
                if hit {
                    self.counters.add_pool_hit();
                } else {
                    self.counters.add_pool_miss();
                }
                buf
            }
            None => Buffer::with_extents(ty, extents),
        }
    }

    /// Hands a scratch buffer's allocation back to the pool, if a pool is
    /// configured and this was the last reference (a buffer still referenced
    /// elsewhere just drops normally).
    pub(crate) fn release_scratch(&self, buf: Arc<Buffer>) {
        if let Some(pool) = &self.buffer_pool {
            if let Some(buf) = Arc::into_inner(buf) {
                pool.release(buf);
            }
        }
    }

    pub(crate) fn record_error(&self, e: ExecError) {
        self.failed.store(true, Ordering::Relaxed);
        let mut slot = self.error.lock();
        if slot.is_none() {
            *slot = Some(e);
        }
    }

    /// The first error recorded by any thread, if any.
    pub fn take_error(&self) -> Option<ExecError> {
        self.error.lock().take()
    }

    pub(crate) fn has_failed(&self) -> bool {
        self.failed.load(Ordering::Relaxed)
    }
}

/// The buffers visible in a scope: a persistent (structure-shared)
/// association list. The innermost binding of a name wins, so allocations
/// shadow naturally; cloning is a single `Arc` bump. The interpreter clones
/// a [`Frame`] for every parallel task, so this interning is what keeps the
/// reference backend usable for differential tests at full sizes (it used
/// to deep-clone a `HashMap<String, Arc<Buffer>>` per iteration).
#[derive(Clone, Default)]
struct BufferChain {
    head: Option<Arc<BufNode>>,
}

struct BufNode {
    name: String,
    buf: Arc<Buffer>,
    rest: Option<Arc<BufNode>>,
}

impl BufferChain {
    fn get(&self, name: &str) -> Option<&Arc<Buffer>> {
        let mut cur = self.head.as_ref();
        while let Some(node) = cur {
            if node.name == name {
                return Some(&node.buf);
            }
            cur = node.rest.as_ref();
        }
        None
    }

    fn push(&mut self, name: String, buf: Arc<Buffer>) {
        self.head = Some(Arc::new(BufNode {
            name,
            buf,
            rest: self.head.take(),
        }));
    }
}

/// A saved buffer-scope position; restoring it undoes pushes made since.
pub struct BufferMark(Option<Arc<BufNode>>);

/// Per-thread evaluation state: scalar bindings plus the buffers visible in
/// the current scope. Cloning is cheap (the buffer list is structure-shared
/// and buffers are `Arc`s) and gives each parallel iteration its own scope,
/// so allocations made inside a parallel loop body stay private to that
/// iteration.
#[derive(Clone, Default)]
pub struct Frame {
    /// Scalar variable bindings (loop indices, lets, buffer layout symbols,
    /// parameters).
    pub env: Scope<Value>,
    /// Buffers visible in this scope, innermost binding first.
    buffers: BufferChain,
}

impl Frame {
    fn buffer(&self, name: &str) -> Result<&Arc<Buffer>> {
        self.buffers
            .get(name)
            .ok_or_else(|| ExecError::new(format!("no buffer named {name:?} is in scope")))
    }

    /// Makes a buffer visible in this scope, shadowing any previous binding
    /// of the same name.
    pub fn insert_buffer(&mut self, name: impl Into<String>, buf: Arc<Buffer>) {
        self.buffers.push(name.into(), buf);
    }

    /// The innermost buffer bound to `name`, if any.
    pub fn buffer_named(&self, name: &str) -> Option<&Arc<Buffer>> {
        self.buffers.get(name)
    }

    /// Saves the current buffer-scope position (see [`Frame::restore_buffers`]).
    pub fn mark_buffers(&self) -> BufferMark {
        BufferMark(self.buffers.head.clone())
    }

    /// Restores a position saved by [`Frame::mark_buffers`], removing
    /// buffers inserted since.
    pub fn restore_buffers(&mut self, mark: BufferMark) {
        self.buffers.head = mark.0;
    }
}

/// Evaluates an expression to a [`Value`].
pub fn eval_expr(e: &Expr, frame: &Frame, ctx: &Context) -> Result<Value> {
    match e.node() {
        ExprNode::IntImm { value, .. } => Ok(Value::int(*value)),
        ExprNode::UIntImm { value, .. } => Ok(Value::int(*value as i64)),
        ExprNode::FloatImm { value, .. } => Ok(Value::float(*value)),
        ExprNode::Var { name, .. } => frame
            .env
            .get(name)
            .cloned()
            .ok_or_else(|| ExecError::new(format!("unbound variable {name:?}"))),
        ExprNode::Cast { ty, value } => {
            let v = eval_expr(value, frame, ctx)?;
            Ok(v.cast_to(ty.scalar()))
        }
        ExprNode::Bin { op, a, b } => {
            let va = eval_expr(a, frame, ctx)?;
            let vb = eval_expr(b, frame, ctx)?;
            if ctx.instrument {
                ctx.counters.add_arith(1);
            }
            Ok(binary_op(*op, &va, &vb))
        }
        ExprNode::Cmp { op, a, b } => {
            let va = eval_expr(a, frame, ctx)?;
            let vb = eval_expr(b, frame, ctx)?;
            if ctx.instrument {
                ctx.counters.add_arith(1);
            }
            Ok(compare_op(*op, &va, &vb))
        }
        ExprNode::And { a, b } => {
            let va = eval_expr(a, frame, ctx)?;
            if va.is_scalar() && !va.as_bool() {
                return Ok(Value::bool(false));
            }
            let vb = eval_expr(b, frame, ctx)?;
            Ok(select_op(&va, &vb, &Value::bool(false)))
        }
        ExprNode::Or { a, b } => {
            let va = eval_expr(a, frame, ctx)?;
            if va.is_scalar() && va.as_bool() {
                return Ok(Value::bool(true));
            }
            let vb = eval_expr(b, frame, ctx)?;
            Ok(select_op(&va, &Value::bool(true), &vb))
        }
        ExprNode::Not { a } => {
            let va = eval_expr(a, frame, ctx)?;
            Ok(Value::Int(
                va.to_int_lanes().iter().map(|v| (*v == 0) as i64).collect(),
            ))
        }
        ExprNode::Select { cond, t, f } => {
            let c = eval_expr(cond, frame, ctx)?;
            // Scalar condition: evaluate only the taken branch (important for
            // the warm-up selects emitted by the sliding window pass).
            if c.is_scalar() {
                return if c.as_bool() {
                    eval_expr(t, frame, ctx)
                } else {
                    eval_expr(f, frame, ctx)
                };
            }
            if ctx.instrument {
                ctx.counters.add_masked_select();
            }
            let tv = eval_expr(t, frame, ctx)?;
            let fv = eval_expr(f, frame, ctx)?;
            Ok(select_op(&c, &tv, &fv))
        }
        ExprNode::Ramp {
            base,
            stride,
            lanes,
        } => {
            let b = eval_expr(base, frame, ctx)?;
            let s = eval_expr(stride, frame, ctx)?;
            match (&b, &s) {
                (Value::Float(_), _) | (_, Value::Float(_)) => {
                    let b = b.as_f64();
                    let s = s.as_f64();
                    Ok(Value::Float(
                        (0..*lanes as i64).map(|i| b + s * i as f64).collect(),
                    ))
                }
                _ => {
                    let b = b.as_int();
                    let s = s.as_int();
                    Ok(Value::Int((0..*lanes as i64).map(|i| b + s * i).collect()))
                }
            }
        }
        ExprNode::Broadcast { value, lanes } => {
            Ok(eval_expr(value, frame, ctx)?.broadcast(*lanes as usize))
        }
        ExprNode::Let { name, value, body } => {
            let v = eval_expr(value, frame, ctx)?;
            let mut inner = frame.clone();
            inner.env.push(name.clone(), v);
            eval_expr(body, &inner, ctx)
        }
        ExprNode::Load {
            name,
            index,
            predicate,
            ..
        } => {
            let idx = eval_expr(index, frame, ctx)?;
            let mask = match predicate {
                Some(p) => {
                    let m = eval_expr(p, frame, ctx)?;
                    Some(m.broadcast(idx.lanes()))
                }
                None => None,
            };
            let buf = frame.buffer(name)?;
            let lanes = idx.lanes();
            if ctx.instrument {
                ctx.counters.add_load(lanes as u64);
                if lanes > 1 {
                    ctx.counters
                        .add_load_pattern(halide_runtime::classify_flat_indices(
                            &idx.to_int_lanes(),
                        ));
                }
                if mask.is_some() {
                    ctx.counters.add_masked_load();
                }
            }
            let len = buf.len();
            let mut out_i: Vec<i64> = Vec::with_capacity(lanes);
            let mut out_f: Vec<f64> = Vec::with_capacity(lanes);
            let is_float = buf.ty().is_float();
            for lane in 0..lanes {
                // A masked-off lane is not read (and not bounds-checked);
                // it yields zero, which the predicate guarantees is never
                // observed by an enabled computation.
                if let Some(m) = &mask {
                    if m.lane_int(lane) == 0 {
                        if is_float {
                            out_f.push(0.0);
                        } else {
                            out_i.push(0);
                        }
                        continue;
                    }
                }
                let i = idx.lane_int(lane);
                if i < 0 || i as usize >= len {
                    return Err(ExecError::new(format!(
                        "load from {name:?} at flat index {i} is outside the allocation of {len} elements"
                    )));
                }
                if is_float {
                    out_f.push(buf.get_flat_f64(i as usize));
                } else {
                    out_i.push(buf.get_flat_i64(i as usize));
                }
            }
            Ok(if is_float {
                Value::Float(out_f)
            } else {
                Value::Int(out_i)
            })
        }
        ExprNode::Call {
            name,
            call_type,
            args,
            ..
        } => match call_type {
            CallType::Intrinsic => {
                let f = CIntrinsic::resolve(name, args.len())?;
                let vals: Vec<Value> = args
                    .iter()
                    .map(|a| eval_expr(a, frame, ctx))
                    .collect::<Result<_>>()?;
                if ctx.instrument {
                    ctx.counters.add_arith(1);
                }
                Ok(f.apply(&vals))
            }
            CallType::Halide | CallType::Image => Err(ExecError::new(format!(
                "call to {name:?} survived lowering; the statement was not flattened"
            ))),
            CallType::Extern => Err(ExecError::new(format!(
                "extern function {name:?} is not registered with the executor"
            ))),
        },
    }
}

/// True if evaluating `e` would read a buffer; such expressions must not be
/// hoisted across statements that may write the buffer.
pub(crate) fn expr_has_load(e: &Expr) -> bool {
    use halide_ir::IrVisitor;
    struct Finder {
        found: bool,
    }
    impl IrVisitor for Finder {
        fn visit_expr(&mut self, e: &Expr) {
            if self.found {
                return;
            }
            if matches!(e.node(), ExprNode::Load { .. }) {
                self.found = true;
                return;
            }
            halide_ir::visit_expr_children(self, e);
        }
    }
    let mut f = Finder { found: false };
    f.visit_expr(e);
    f.found
}

/// Splits a loop body into its leading chain of `LetStmt`s whose values are
/// invariant in `loop_var` (and load from no buffer), plus the remaining
/// inner statement.
///
/// The let-dense statements produced by bounds inference put a realization's
/// `<func>.<dim>.min/.extent` bindings directly inside the enclosing loops;
/// evaluating the invariant ones once per loop *entry* instead of once per
/// iteration keeps the interpreter's per-iteration cost flat. Peeling stops
/// at the first dependent let so hoisted values can never observe the loop
/// variable (directly or through an un-hoisted predecessor).
pub(crate) fn peel_invariant_lets<'a>(
    body: &'a Stmt,
    loop_var: &str,
) -> (Vec<(&'a str, &'a Expr)>, &'a Stmt) {
    let mut hoisted = Vec::new();
    let mut cur = body;
    while let StmtNode::LetStmt { name, value, body } = cur.node() {
        if name == loop_var || halide_ir::expr_uses_var(value, loop_var) || expr_has_load(value) {
            break;
        }
        hoisted.push((name.as_str(), value));
        cur = body;
    }
    (hoisted, cur)
}

/// Executes a statement.
pub fn eval_stmt(s: &Stmt, frame: &mut Frame, ctx: &Context) -> Result<()> {
    if ctx.has_failed() {
        return Ok(()); // another thread already failed; unwind quietly
    }
    match s.node() {
        StmtNode::LetStmt { name, value, body } => {
            let v = eval_expr(value, frame, ctx)?;
            frame.env.push(name.clone(), v);
            let r = eval_stmt(body, frame, ctx);
            frame.env.pop(name);
            r
        }
        StmtNode::Assert { condition, message } => {
            let c = eval_expr(condition, frame, ctx)?;
            if c.as_bool() {
                Ok(())
            } else {
                Err(ExecError::new(format!("assertion failed: {message}")))
            }
        }
        StmtNode::Producer {
            name,
            is_produce,
            body,
        } => {
            if *is_produce {
                if let Some(p) = &ctx.profiler {
                    let prev = p.enter_named(name);
                    let r = eval_stmt(body, frame, ctx);
                    p.exit(prev);
                    return r;
                }
            }
            eval_stmt(body, frame, ctx)
        }
        StmtNode::For {
            name,
            min,
            extent,
            kind,
            body,
        } => {
            let min_v = eval_expr(min, frame, ctx)?.as_int();
            let extent_v = eval_expr(extent, frame, ctx)?.as_int();
            // Evaluate the loop body's leading invariant lets once per loop
            // entry rather than once per iteration.
            let (hoisted, inner) = peel_invariant_lets(body, name);
            match kind {
                ForKind::Serial | ForKind::Vectorized | ForKind::Unrolled => {
                    // Lowering replaces vectorized/unrolled loops; one that
                    // still reaches the executor (a hand-built statement)
                    // runs serially.
                    for (n, v) in &hoisted {
                        let value = eval_expr(v, frame, ctx)?;
                        frame.env.push(n.to_string(), value);
                    }
                    frame.env.push(name.clone(), Value::int(0));
                    for i in min_v..min_v + extent_v {
                        *frame.env.get_mut(name).expect("loop variable just pushed") =
                            Value::int(i);
                        eval_stmt(inner, frame, ctx)?;
                        if ctx.has_failed() {
                            break;
                        }
                    }
                    frame.env.pop(name);
                    for (n, _) in hoisted.iter().rev() {
                        frame.env.pop(n);
                    }
                    Ok(())
                }
                ForKind::Parallel => {
                    let mut base = frame.clone();
                    // Each hoisted value is evaluated against the frame
                    // extended so far, so later lets can reference earlier
                    // ones (and rebindings shadow correctly).
                    for (n, v) in &hoisted {
                        let value = eval_expr(v, &base, ctx)?;
                        base.env.push(n.to_string(), value);
                    }
                    ctx.pool.parallel_for(min_v, extent_v, &ctx.counters, |i| {
                        if ctx.has_failed() {
                            return;
                        }
                        let mut f = base.clone();
                        f.env.push(name.clone(), Value::int(i));
                        if let Err(e) = eval_stmt(inner, &mut f, ctx) {
                            ctx.record_error(e);
                        }
                    });
                    match ctx.take_error() {
                        Some(e) => Err(e),
                        None => Ok(()),
                    }
                }
            }
        }
        StmtNode::Store {
            name,
            value,
            index,
            predicate,
        } => {
            let idx = eval_expr(index, frame, ctx)?;
            let val = eval_expr(value, frame, ctx)?;
            let buf = frame.buffer(name)?;
            let lanes = idx.lanes().max(val.lanes());
            let idx = idx.broadcast(lanes);
            let mask = match predicate {
                Some(p) => {
                    let m = eval_expr(p, frame, ctx)?;
                    Some(m.broadcast(lanes))
                }
                None => None,
            };
            if ctx.instrument {
                ctx.counters.add_store(lanes as u64);
                if lanes > 1 {
                    ctx.counters
                        .add_store_pattern(halide_runtime::classify_flat_indices(
                            &idx.to_int_lanes(),
                        ));
                }
                if mask.is_some() {
                    ctx.counters.add_masked_store();
                }
            }
            let len = buf.len();
            for lane in 0..lanes {
                // A masked-off lane is skipped entirely: not written, not
                // bounds-checked.
                if let Some(m) = &mask {
                    if m.lane_int(lane) == 0 {
                        continue;
                    }
                }
                let i = idx.lane_int(lane);
                if i < 0 || i as usize >= len {
                    return Err(ExecError::new(format!(
                        "store to {name:?} at flat index {i} is outside the allocation of {len} elements"
                    )));
                }
                buf.set_flat_lane(i as usize, &val, lane);
            }
            Ok(())
        }
        StmtNode::Allocate {
            name,
            ty,
            size,
            body,
        } => {
            let n = eval_expr(size, frame, ctx)?.as_int();
            if n < 0 {
                return Err(ExecError::new(format!(
                    "allocation of {name:?} has negative size {n}"
                )));
            }
            let buf = Arc::new(ctx.alloc_scratch(ty.scalar(), &[n]));
            let bytes = buf.size_bytes() as u64;
            ctx.counters.add_allocation(bytes);
            if let Some(p) = &ctx.profiler {
                p.record_alloc(name, bytes);
            }
            let mark = frame.mark_buffers();
            frame.insert_buffer(name.clone(), Arc::clone(&buf));
            let r = eval_stmt(body, frame, ctx);
            frame.restore_buffers(mark);
            ctx.counters.add_free(bytes);
            if let Some(p) = &ctx.profiler {
                p.record_free(name, bytes);
            }
            ctx.release_scratch(buf);
            r
        }
        StmtNode::Block { stmts } => {
            for s in stmts {
                eval_stmt(s, frame, ctx)?;
            }
            Ok(())
        }
        StmtNode::IfThenElse {
            condition,
            then_case,
            else_case,
        } => {
            let c = eval_expr(condition, frame, ctx)?;
            if c.as_bool() {
                eval_stmt(then_case, frame, ctx)
            } else if let Some(e) = else_case {
                eval_stmt(e, frame, ctx)
            } else {
                Ok(())
            }
        }
        StmtNode::Evaluate { value } => {
            eval_expr(value, frame, ctx)?;
            Ok(())
        }
        StmtNode::NoOp => Ok(()),
        StmtNode::Provide { name, .. } | StmtNode::Realize { name, .. } => Err(ExecError::new(
            format!("{name:?} was not flattened before execution"),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use halide_ir::{ScalarType, Type};

    fn ctx() -> Context {
        Context::new(ThreadPool::new(4), true)
    }

    fn frame_with_buffer(name: &str, len: i64) -> Frame {
        let mut f = Frame::default();
        f.insert_buffer(
            name.to_string(),
            Arc::new(Buffer::with_extents(ScalarType::Float(32), &[len])),
        );
        f
    }

    #[test]
    fn arithmetic_and_variables() {
        let c = ctx();
        let mut f = Frame::default();
        f.env.push("x", Value::int(7));
        let e = Expr::var_i32("x") * 3 + 1;
        assert_eq!(eval_expr(&e, &f, &c).unwrap().as_int(), 22);
        assert!(eval_expr(&Expr::var_i32("missing"), &f, &c).is_err());
    }

    #[test]
    fn serial_loop_stores() {
        let c = ctx();
        let mut f = frame_with_buffer("buf", 10);
        let s = Stmt::for_loop(
            "i",
            Expr::int(0),
            Expr::int(10),
            ForKind::Serial,
            Stmt::store(
                "buf",
                Expr::var_i32("i").cast(Type::f32()) * 2.0f32,
                Expr::var_i32("i"),
            ),
        );
        eval_stmt(&s, &mut f, &c).unwrap();
        let buf = f.buffer_named("buf").unwrap().clone();
        assert_eq!(buf.get_flat_f64(3), 6.0);
        assert_eq!(c.counters.snapshot().stores, 10);
    }

    #[test]
    fn parallel_loop_matches_serial() {
        let c = ctx();
        let mut f = frame_with_buffer("buf", 100);
        let body = Stmt::store(
            "buf",
            Expr::var_i32("i").cast(Type::f32()),
            Expr::var_i32("i"),
        );
        let s = Stmt::for_loop("i", Expr::int(0), Expr::int(100), ForKind::Parallel, body);
        eval_stmt(&s, &mut f, &c).unwrap();
        let buf = f.buffer_named("buf").unwrap().clone();
        assert!((0..100).all(|i| buf.get_flat_f64(i as usize) == i as f64));
        assert!(c.counters.snapshot().parallel_tasks >= 100);
    }

    #[test]
    fn hoisted_let_chains_resolve_in_parallel_loops() {
        // Regression: a parallel loop body starting with a chain of
        // invariant lets (`let a = 5; let b = a + 1; ...`) must evaluate
        // each hoisted value against the frame extended so far, including
        // shadowing of an outer binding of the same name.
        let c = ctx();
        let mut f = frame_with_buffer("buf", 16);
        f.env.push("a", Value::int(1000)); // shadowed by the loop body's let
        let body = Stmt::let_stmt(
            "a",
            Expr::int(5),
            Stmt::let_stmt(
                "b",
                Expr::var_i32("a") + 1,
                Stmt::store(
                    "buf",
                    Expr::var_i32("b").cast(Type::f32()),
                    Expr::var_i32("i"),
                ),
            ),
        );
        let s = Stmt::for_loop("i", Expr::int(0), Expr::int(16), ForKind::Parallel, body);
        eval_stmt(&s, &mut f, &c).unwrap();
        assert_eq!(f.buffer_named("buf").unwrap().get_flat_f64(7), 6.0);
        // The hoisted bindings are popped with the loop: the outer `a`
        // binding is intact afterwards.
        assert_eq!(f.env.get("a").unwrap().as_int(), 1000);
    }

    #[test]
    fn out_of_bounds_is_an_error() {
        let c = ctx();
        let mut f = frame_with_buffer("buf", 4);
        let s = Stmt::store("buf", Expr::f32(1.0), Expr::int(9));
        assert!(eval_stmt(&s, &mut f, &c).is_err());
        let load = Expr::load(Type::f32(), "buf", Expr::int(-1));
        assert!(eval_expr(&load, &f, &c).is_err());
    }

    #[test]
    fn out_of_bounds_inside_parallel_loop_is_reported() {
        let c = ctx();
        let mut f = frame_with_buffer("buf", 4);
        let body = Stmt::store("buf", Expr::f32(1.0), Expr::var_i32("i"));
        let s = Stmt::for_loop("i", Expr::int(0), Expr::int(100), ForKind::Parallel, body);
        assert!(eval_stmt(&s, &mut f, &c).is_err());
    }

    #[test]
    fn allocation_scoping_and_counters() {
        let c = ctx();
        let mut f = Frame::default();
        let body = Stmt::store("tmp", Expr::f32(3.0), Expr::int(0));
        let s = Stmt::allocate("tmp", Type::f32(), Expr::int(16), body);
        eval_stmt(&s, &mut f, &c).unwrap();
        assert!(f.buffer_named("tmp").is_none());
        let snap = c.counters.snapshot();
        assert_eq!(snap.allocations, 1);
        assert_eq!(snap.bytes_allocated, 64);
    }

    #[test]
    fn vector_ramp_load_store() {
        let c = ctx();
        let mut f = frame_with_buffer("src", 8);
        for i in 0..8 {
            f.buffer_named("src").unwrap().set_flat_f64(i, i as f64);
        }
        f.insert_buffer(
            "dst".to_string(),
            Arc::new(Buffer::with_extents(ScalarType::Float(32), &[8])),
        );
        // dst[ramp(0,1,8)] = src[ramp(0,1,8)] * 2
        let idx = Expr::ramp(Expr::int(0), Expr::int(1), 8);
        let s = Stmt::store(
            "dst",
            Expr::load(Type::f32(), "src", idx.clone()) * 2.0f32,
            idx,
        );
        eval_stmt(&s, &mut f, &c).unwrap();
        assert_eq!(f.buffer_named("dst").unwrap().get_flat_f64(7), 14.0);
        let snap = c.counters.snapshot();
        // one vector load + one vector store
        assert_eq!(snap.loads, 1);
        assert_eq!(snap.stores, 1);
        assert_eq!(snap.elements_loaded, 8);
    }

    #[test]
    fn assertions_and_conditionals() {
        let c = ctx();
        let mut f = Frame::default();
        assert!(eval_stmt(&Stmt::assert_stmt(Expr::bool(true), "ok"), &mut f, &c).is_ok());
        assert!(eval_stmt(&Stmt::assert_stmt(Expr::bool(false), "boom"), &mut f, &c).is_err());
        let s = Stmt::if_then_else(
            Expr::bool(false),
            Stmt::assert_stmt(Expr::bool(false), "unreachable"),
            Some(Stmt::no_op()),
        );
        assert!(eval_stmt(&s, &mut f, &c).is_ok());
    }

    #[test]
    fn intrinsics() {
        let c = ctx();
        let f = Frame::default();
        assert_eq!(
            eval_expr(&Expr::f32(9.0).sqrt(), &f, &c).unwrap().as_f64(),
            3.0
        );
        assert_eq!(eval_expr(&Expr::int(-4).abs(), &f, &c).unwrap().as_int(), 4);
        assert_eq!(
            eval_expr(&Expr::f32(2.0).pow(Expr::f32(10.0)), &f, &c)
                .unwrap()
                .as_f64(),
            1024.0
        );
        assert!(eval_expr(
            &Expr::intrinsic("no_such_intrinsic", vec![Expr::int(0)], Type::i32()),
            &f,
            &c
        )
        .is_err());
        // The intrinsics added for upcoming pipelines: min/max, atan2, tanh.
        assert_eq!(
            eval_expr(
                &Expr::intrinsic("min", vec![Expr::int(3), Expr::int(-5)], Type::i32()),
                &f,
                &c
            )
            .unwrap()
            .as_int(),
            -5
        );
        assert_eq!(
            eval_expr(
                &Expr::intrinsic("max", vec![Expr::f32(1.5), Expr::f32(2.5)], Type::f32()),
                &f,
                &c
            )
            .unwrap()
            .as_f64(),
            2.5
        );
        assert_eq!(
            eval_expr(&Expr::f32(0.0).tanh(), &f, &c).unwrap().as_f64(),
            0.0
        );
        assert_eq!(
            eval_expr(&Expr::f32(1.0).atan2(Expr::f32(1.0)), &f, &c)
                .unwrap()
                .as_f64(),
            std::f64::consts::FRAC_PI_4
        );
    }
}
