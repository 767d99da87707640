//! The realization API: binding inputs, parameters, and an output size to a
//! compiled [`Module`] and executing it.
//!
//! This plays the role of the C-ABI entry point the paper's compiler emits
//! ("takes buffer pointers for input and output data, as well as scalar
//! parameters", Sec. 4): buffers are bound by name, the output buffer and all
//! intermediate allocations are managed automatically, and execution is
//! multithreaded according to the schedule.
//!
//! Two execution engines sit behind the same binding API (see
//! `docs/execution.md` at the repository root):
//!
//! * [`Backend::Compiled`] (the default) first compiles the lowered
//!   statement into a register-machine [`crate::Program`] — names
//!   resolved to slots, intrinsics to function pointers, scalars unboxed —
//!   and then runs it;
//! * [`Backend::Interp`] walks the statement tree directly. It is kept as
//!   the executable reference semantics: differential tests assert that both
//!   backends produce bit-identical outputs and identical counters.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use halide_ir::StmtNode;
use halide_lower::Module;
use halide_runtime::{Buffer, BufferPool, CounterSnapshot, Scalar, ThreadPool, Value};

use crate::compile::Program;
use crate::error::{ExecError, Result};
use crate::eval::{eval_stmt, Context, Frame};
use crate::machine::{exec, Machine};
use crate::opt::OptLevel;

/// Which execution engine a [`Realizer`] runs a module on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Backend {
    /// Compile the statement to a register-machine program, then run it
    /// (the default — roughly an order of magnitude faster).
    #[default]
    Compiled,
    /// Walk the statement tree directly (the reference semantics).
    Interp,
}

impl Backend {
    /// Both backends, for differential testing.
    pub const ALL: [Backend; 2] = [Backend::Compiled, Backend::Interp];

    /// A short stable name (`compiled` / `interp`), accepted by
    /// [`Backend::from_name`].
    pub fn name(&self) -> &'static str {
        match self {
            Backend::Compiled => "compiled",
            Backend::Interp => "interp",
        }
    }

    /// Parses a backend name as produced by [`Backend::name`].
    pub fn from_name(name: &str) -> Option<Backend> {
        match name {
            "compiled" => Some(Backend::Compiled),
            "interp" | "interpreter" => Some(Backend::Interp),
            _ => None,
        }
    }
}

/// The result of running a pipeline: the output image, the instrumentation
/// counters, and the wall-clock time of the run.
#[derive(Debug)]
pub struct Realization {
    /// The output buffer.
    pub output: Buffer,
    /// Work counters accumulated during the run.
    pub counters: CounterSnapshot,
    /// Wall-clock execution time (excluding compilation).
    pub wall_time: Duration,
}

/// Builder that binds inputs and parameters to a [`Module`] and runs it.
///
/// # Examples
///
/// ```no_run
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// # let module: halide_lower::Module = unimplemented!();
/// use halide_exec::{Backend, Realizer};
/// use halide_runtime::Buffer;
/// use halide_ir::ScalarType;
///
/// let input = Buffer::from_fn_2d(ScalarType::Float(32), 64, 64, |x, y| (x + y) as f64);
/// let result = Realizer::new(&module)
///     .input("input", input)
///     .threads(4)
///     .backend(Backend::Compiled) // the default; Backend::Interp for the reference
///     .realize(&[64, 64])?;
/// println!("ran in {:?}", result.wall_time);
/// # Ok(())
/// # }
/// ```
pub struct Realizer<'m> {
    module: &'m Module,
    inputs: HashMap<String, Arc<Buffer>>,
    params: HashMap<String, Value>,
    threads: usize,
    instrument: bool,
    backend: Backend,
    opt: OptLevel,
    thread_pool: Option<ThreadPool>,
    buffer_pool: Option<Arc<BufferPool>>,
    profiling: bool,
    profiler: OnceLock<Arc<halide_trace::Profiler>>,
    compiled: OnceLock<std::result::Result<Arc<Program>, ExecError>>,
}

impl<'m> Realizer<'m> {
    /// Creates a realizer for a compiled module with default settings
    /// (all available cores, instrumentation on, compiled backend).
    pub fn new(module: &'m Module) -> Self {
        Realizer {
            module,
            inputs: HashMap::new(),
            params: HashMap::new(),
            threads: halide_runtime::num_threads_default(),
            instrument: true,
            backend: Backend::default(),
            opt: OptLevel::Default,
            thread_pool: None,
            buffer_pool: None,
            profiling: false,
            profiler: OnceLock::new(),
            compiled: OnceLock::new(),
        }
    }

    /// Creates a realizer that reuses an already-compiled [`Program`] for
    /// `module` instead of compiling its own — the compile-once /
    /// realize-many entry point. Many realizers (across many threads) can
    /// share one `Arc<Program>`; see [`Realizer::program`] for obtaining it.
    ///
    /// The caller is responsible for passing a program that was actually
    /// compiled from `module` (they are matched by construction in the
    /// serving layer's program cache).
    pub fn with_program(module: &'m Module, program: Arc<Program>) -> Self {
        let r = Realizer::new(module);
        let _ = r.compiled.set(Ok(program));
        r
    }

    /// Binds an input image by name.
    pub fn input(mut self, name: impl Into<String>, buffer: Buffer) -> Self {
        self.inputs.insert(name.into(), Arc::new(buffer));
        self
    }

    /// Binds an already-shared input image by name (avoids copying when the
    /// same input is realized many times, e.g. by the autotuner).
    pub fn input_shared(mut self, name: impl Into<String>, buffer: Arc<Buffer>) -> Self {
        self.inputs.insert(name.into(), buffer);
        self
    }

    /// Binds a scalar floating-point parameter.
    pub fn param_f32(mut self, name: impl Into<String>, value: f32) -> Self {
        self.params.insert(name.into(), Value::float(value as f64));
        self
    }

    /// Binds a scalar integer parameter.
    pub fn param_i32(mut self, name: impl Into<String>, value: i32) -> Self {
        self.params.insert(name.into(), Value::int(value as i64));
        self
    }

    /// Sets the number of worker threads (1 = run serially).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Enables or disables per-operation instrumentation. Disable it for
    /// wall-clock benchmarking; structural counters (allocations, tasks,
    /// kernel launches, copies) are always collected.
    pub fn instrument(mut self, on: bool) -> Self {
        self.instrument = on;
        self
    }

    /// Selects the execution engine (default: [`Backend::Compiled`]).
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Selects the pre-codegen optimization level for the compiled backend
    /// (default: [`OptLevel::Default`]). Has no effect on an already-compiled
    /// program supplied via [`Realizer::with_program`].
    pub fn opt_level(mut self, level: OptLevel) -> Self {
        self.opt = level;
        self
    }

    /// Runs parallel loops on an existing (persistent) [`ThreadPool`]
    /// instead of creating one per realization. Overrides
    /// [`Realizer::threads`]. The serving layer hands each admission slot
    /// its own long-lived pool so steady-state requests never spawn OS
    /// threads.
    pub fn thread_pool(mut self, pool: ThreadPool) -> Self {
        self.thread_pool = Some(pool);
        self
    }

    /// Draws the scratch buffers of `Allocate` statements from a
    /// [`BufferPool`] (returned on scope exit), so steady-state
    /// re-realizations do no large allocations. Pool hits and misses are
    /// recorded in the realization's counters. The interpreting backend also
    /// acquires from the pool; buffers still referenced at scope exit are
    /// dropped instead of returned.
    pub fn buffer_pool(mut self, pool: Arc<BufferPool>) -> Self {
        self.buffer_pool = Some(pool);
        self
    }

    /// Enables the sampling per-Func profiler (default: off). While a
    /// realization runs, a sampler thread periodically reads which Func's
    /// produce nest is executing and charges the sample to it; produce
    /// entries also count invocations and scratch allocations record
    /// high-water memory per Func. The mutator-side cost is one atomic store
    /// per produce entry/exit — nothing per operation — so profiled runs
    /// stay within a few percent of unprofiled ones.
    ///
    /// Results accumulate across every `realize` call on this realizer; read
    /// them with [`Realizer::profile_report`].
    pub fn profile(mut self, on: bool) -> Self {
        self.profiling = on;
        self
    }

    /// The per-Func profile accumulated so far, or `None` when profiling was
    /// not enabled. Covers every realization this realizer has run.
    pub fn profile_report(&self) -> Option<halide_trace::ProfileReport> {
        self.profiler.get().map(|p| p.report())
    }

    /// The profiler for this realizer, creating it (and its sampler thread)
    /// on first use. `None` unless [`Realizer::profile`] enabled profiling.
    fn profiler(&self) -> Option<Arc<halide_trace::Profiler>> {
        if !self.profiling {
            return None;
        }
        let p = self
            .profiler
            .get_or_init(|| Arc::new(halide_trace::Profiler::new(collect_func_names(self.module))));
        Some(Arc::clone(p))
    }

    /// The compiled program for this realizer's module, compiling it on
    /// first use and caching it across `realize` calls. Exposed so callers
    /// can share one program across many realizers / threads (construct the
    /// others with [`Realizer::with_program`]).
    ///
    /// # Errors
    ///
    /// Fails if the module does not compile (e.g. it still contains
    /// constructs lowering should have removed).
    pub fn program(&self) -> Result<Arc<Program>> {
        self.compiled
            .get_or_init(|| Program::compile_with(self.module, self.opt).map(Arc::new))
            .clone()
    }

    /// The execution context for one run: a fresh per-run pool unless a
    /// persistent one was supplied, plus the optional buffer pool.
    fn context(&self) -> Context {
        let pool = self
            .thread_pool
            .clone()
            .unwrap_or_else(|| ThreadPool::new(self.threads));
        Context::new(pool, self.instrument)
            .with_buffer_pool(self.buffer_pool.clone())
            .with_profiler(self.profiler())
    }

    /// Runs the pipeline, producing an output of the given extents (one per
    /// output dimension, innermost first).
    ///
    /// # Errors
    ///
    /// Fails if a referenced input image or parameter is unbound, if the
    /// number of output extents is wrong, or if execution itself fails
    /// (out-of-bounds access, failed assertion).
    pub fn realize(&self, output_extents: &[i64]) -> Result<Realization> {
        let module = self.module;
        if output_extents.len() != module.output.args.len() {
            return Err(ExecError::new(format!(
                "output of {} has {} dimensions but {} extents were supplied",
                module.name,
                module.output.args.len(),
                output_extents.len()
            )));
        }
        self.realize_into(Buffer::with_extents(
            module.output.ty.scalar(),
            output_extents,
        ))
    }

    /// Runs the pipeline into a caller-supplied output buffer — the
    /// realize-many half of compile-once / realize-many. The buffer's
    /// extents determine the realized region (its contents are assumed
    /// zeroed, exactly what [`BufferPool::acquire`] and [`Buffer::new`]
    /// produce); it is returned as [`Realization::output`], so a serving
    /// layer can cycle the same pooled allocation through many requests.
    ///
    /// # Errors
    ///
    /// In addition to the failure modes of [`Realizer::realize`], fails if
    /// the buffer's element type is not the module's output type, or if any
    /// of its dimensions has a nonzero minimum.
    pub fn realize_into(&self, output: Buffer) -> Result<Realization> {
        let module = self.module;
        if output.dimensions() != module.output.args.len() {
            return Err(ExecError::new(format!(
                "output of {} has {} dimensions but the supplied buffer has {}",
                module.name,
                module.output.args.len(),
                output.dimensions()
            )));
        }
        if output.ty() != module.output.ty.scalar() {
            return Err(ExecError::new(format!(
                "output of {} stores {:?} but the supplied buffer stores {:?}",
                module.name,
                module.output.ty.scalar(),
                output.ty()
            )));
        }
        if let Some(d) = output.dims().iter().find(|d| d.min != 0) {
            return Err(ExecError::new(format!(
                "output buffers must start at 0, got a dimension spanning [{}, {})",
                d.min,
                d.min + d.extent
            )));
        }
        for input in &module.inputs {
            if !self.inputs.contains_key(input) {
                return Err(ExecError::new(format!(
                    "input image {input:?} is not bound (use Realizer::input)"
                )));
            }
        }
        match self.backend {
            Backend::Compiled => self.realize_compiled(output),
            Backend::Interp => self.realize_interp(output),
        }
    }

    /// This realization's [`Bindings`]: the inputs, the params, then the
    /// caller-supplied `output`.
    ///
    /// Fails on a vector-valued parameter.
    fn bindings(&self, output: &Arc<Buffer>) -> Result<Bindings<'_>> {
        let out = &self.module.output;
        let dims =
            self.inputs.values().map(|b| b.dimensions()).sum::<usize>() + output.dimensions();
        let mut b = Bindings {
            symbols: Vec::with_capacity(3 * dims + self.params.len() + 2 * out.args.len()),
            buffers: Vec::with_capacity(self.inputs.len() + 1),
        };
        for (name, buf) in &self.inputs {
            b.buffer(name, buf);
        }
        for (name, value) in &self.params {
            let value = value
                .as_scalar()
                .ok_or_else(|| ExecError::new(format!("parameter {name:?} is a vector")))?;
            b.symbols.push((Cow::Borrowed(name.as_str()), value));
        }
        b.buffer(&out.name, output);
        // The loop bounds of the output function use `<func>.<arg>.min/extent`.
        for (arg, dim) in out.args.iter().zip(output.dims()) {
            let name = &out.name;
            b.symbols
                .push((format!("{name}.{arg}.min").into(), Scalar::Int(0)));
            b.symbols.push((
                format!("{name}.{arg}.extent").into(),
                Scalar::Int(dim.extent),
            ));
        }
        Ok(b)
    }

    /// The interpreting path: the executable reference semantics.
    fn realize_interp(&self, output: Buffer) -> Result<Realization> {
        let module = self.module;
        let ctx = self.context();
        let output = Arc::new(output);
        let bindings = self.bindings(&output)?;
        let mut frame = Frame::default();
        for (name, value) in bindings.symbols {
            frame.env.push(name, value.to_value());
        }
        for (name, buf) in bindings.buffers {
            frame.insert_buffer(name, buf);
        }

        if let Some(p) = &ctx.profiler {
            p.begin_run();
        }
        let start = Instant::now();
        let run = eval_stmt(&module.stmt, &mut frame, &ctx);
        let err = run.err().or_else(|| ctx.take_error());
        let wall_time = start.elapsed();
        if let Some(p) = &ctx.profiler {
            p.end_run(wall_time);
        }
        if let Some(e) = err {
            return Err(e);
        }

        let counters = ctx.counters.snapshot();
        drop(frame);
        let output = Arc::try_unwrap(output).unwrap_or_else(|arc| (*arc).clone());
        Ok(Realization {
            output,
            counters,
            wall_time,
        })
    }

    /// The compiled path: resolve the module once into a register-machine
    /// [`Program`], bind its free slots/buffers, and execute.
    fn realize_compiled(&self, output: Buffer) -> Result<Realization> {
        let prog = self.program()?;
        let ctx = self.context();
        let mut machine = Machine::new(&prog);
        let output = Arc::new(output);
        let bindings = self.bindings(&output)?;
        for (name, value) in &bindings.symbols {
            if let Some(slot) = prog.free_slot(name) {
                machine.set_reg(slot, *value);
            }
        }
        for (name, buf) in bindings.buffers {
            if let Some(idx) = prog.free_buf(name) {
                machine.set_buf(idx, buf);
            }
        }

        // Every free buffer and every free slot must now be bound, so a
        // symbol the bindings did not cover errors up front exactly like the
        // interpreter's "unbound variable" (instead of silently reading a
        // zeroed register).
        for (name, idx) in &prog.free_bufs {
            if machine.bufs[*idx as usize].is_none() {
                return Err(ExecError::new(format!(
                    "no buffer named {name:?} is in scope"
                )));
            }
        }
        for name in prog.free_slots.keys() {
            if !bindings.symbols.iter().any(|(bound, _)| bound == name) {
                return Err(ExecError::new(format!("unbound variable {name:?}")));
            }
        }

        if let Some(p) = &ctx.profiler {
            p.begin_run();
        }
        let start = Instant::now();
        let run = exec(&prog, &prog.body, &mut machine, &ctx);
        let err = run.err().or_else(|| ctx.take_error());
        let wall_time = start.elapsed();
        if let Some(p) = &ctx.profiler {
            p.end_run(wall_time);
        }
        if let Some(e) = err {
            return Err(e);
        }

        let counters = ctx.counters.snapshot();
        drop(machine);
        let output = Arc::try_unwrap(output).unwrap_or_else(|arc| (*arc).clone());
        Ok(Realization {
            output,
            counters,
            wall_time,
        })
    }
}

/// Collects the Func names the profiler should have slots for: every produce
/// nest and every scratch allocation in the lowered statement (allocations
/// are named after the Func whose storage they hold, so the two sets overlap
/// almost entirely). Walking the module — rather than a compiled program —
/// keeps the name set identical across backends.
fn collect_func_names(module: &Module) -> Vec<String> {
    struct Collector(Vec<String>);
    impl halide_ir::IrVisitor for Collector {
        fn visit_stmt(&mut self, s: &halide_ir::Stmt) {
            match s.node() {
                StmtNode::Producer {
                    name,
                    is_produce: true,
                    ..
                } => self.0.push(name.clone()),
                StmtNode::Allocate { name, .. } => self.0.push(name.clone()),
                _ => {}
            }
            halide_ir::visit_stmt_children(self, s);
        }
    }
    let mut c = Collector(Vec::new());
    use halide_ir::IrVisitor as _;
    c.visit_stmt(&module.stmt);
    c.0
}

/// Everything one realization binds, listed once for both engines: every
/// scalar symbol — each buffer's layout symbols (`<name>.min.<d>` /
/// `.extent.<d>` / `.stride.<d>`), the params, and the output's
/// `<out>.<arg>.min/.extent` loop bounds — and every buffer by name, in
/// binding order (a later symbol shadows an earlier one of the same name).
struct Bindings<'a> {
    symbols: Vec<(Cow<'a, str>, Scalar)>,
    buffers: Vec<(&'a str, Arc<Buffer>)>,
}

impl<'a> Bindings<'a> {
    /// Adds a buffer and its layout symbols.
    fn buffer(&mut self, name: &'a str, buf: &Arc<Buffer>) {
        let strides = buf.strides();
        for (d, dim) in buf.dims().iter().enumerate() {
            let layout = [
                ("min", dim.min),
                ("extent", dim.extent),
                ("stride", strides[d]),
            ];
            for (field, v) in layout {
                self.symbols
                    .push((format!("{name}.{field}.{d}").into(), Scalar::Int(v)));
            }
        }
        self.buffers.push((name, Arc::clone(buf)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use halide_ir::{ScalarType, Type};
    use halide_lang::{Func, ImageParam, Pipeline, Var};
    use halide_lower::lower;

    fn brighten_module(prefix: &str) -> (Module, String) {
        let input = ImageParam::new(format!("{prefix}_in"), Type::f32(), 2);
        let (x, y) = (Var::new("x"), Var::new("y"));
        let out = Func::new(format!("{prefix}_out"));
        out.define(
            &[x.clone(), y.clone()],
            input.at(vec![x.expr(), y.expr()]) * 2.0f32 + 1.0f32,
        );
        (lower(&Pipeline::new(&out)).unwrap(), format!("{prefix}_in"))
    }

    #[test]
    fn pointwise_pipeline_runs_on_both_backends() {
        let (module, in_name) = brighten_module("realize_pointwise");
        let input = Buffer::from_fn_2d(ScalarType::Float(32), 8, 6, |x, y| (x + 10 * y) as f64);
        for backend in Backend::ALL {
            let result = Realizer::new(&module)
                .input(in_name.clone(), input.clone())
                .threads(1)
                .backend(backend)
                .realize(&[8, 6])
                .unwrap();
            assert_eq!(result.output.at_f64(&[3, 2]), (3 + 20) as f64 * 2.0 + 1.0);
            assert_eq!(result.output.dims()[0].extent, 8);
            assert!(result.counters.stores > 0);
        }
    }

    #[test]
    fn missing_input_is_an_error() {
        let (module, _) = brighten_module("realize_missing");
        assert!(Realizer::new(&module).realize(&[4, 4]).is_err());
        assert!(Realizer::new(&module)
            .backend(Backend::Interp)
            .realize(&[4, 4])
            .is_err());
    }

    #[test]
    fn wrong_dimensionality_is_an_error() {
        let (module, in_name) = brighten_module("realize_wrongdims");
        let input = Buffer::with_extents(ScalarType::Float(32), &[4, 4]);
        assert!(Realizer::new(&module)
            .input(in_name, input)
            .realize(&[4])
            .is_err());
    }

    #[test]
    fn scalar_params_are_bound() {
        let input = ImageParam::new("realize_param_in", Type::f32(), 2);
        let gain = halide_lang::Param::new("gain", Type::f32());
        let (x, y) = (Var::new("x"), Var::new("y"));
        let out = Func::new("realize_param_out");
        out.define(
            &[x.clone(), y.clone()],
            input.at(vec![x.expr(), y.expr()]) * gain.expr(),
        );
        let module = lower(&Pipeline::new(&out)).unwrap();
        let input_buf = Buffer::from_fn_2d(ScalarType::Float(32), 4, 4, |x, _| x as f64);
        for backend in Backend::ALL {
            let result = Realizer::new(&module)
                .input("realize_param_in", input_buf.clone())
                .param_f32("gain", 10.0)
                .backend(backend)
                .realize(&[4, 4])
                .unwrap();
            assert_eq!(result.output.at_f64(&[3, 0]), 30.0);
        }
    }

    #[test]
    fn missing_param_is_an_error_on_the_compiled_backend() {
        let input = ImageParam::new("realize_noparam_in", Type::f32(), 2);
        let gain = halide_lang::Param::new("missing_gain", Type::f32());
        let (x, y) = (Var::new("x"), Var::new("y"));
        let out = Func::new("realize_noparam_out");
        out.define(
            &[x.clone(), y.clone()],
            input.at(vec![x.expr(), y.expr()]) * gain.expr(),
        );
        let module = lower(&Pipeline::new(&out)).unwrap();
        let input_buf = Buffer::with_extents(ScalarType::Float(32), &[4, 4]);
        let err = Realizer::new(&module)
            .input("realize_noparam_in", input_buf)
            .realize(&[4, 4])
            .unwrap_err();
        assert!(err.to_string().contains("missing_gain"), "got: {err}");
    }

    /// Two realizers sharing one pre-compiled program (the serving layer's
    /// compile-once / realize-many contract) must behave exactly like two
    /// independently compiled realizers: identical outputs and identical
    /// counters.
    #[test]
    fn realizers_sharing_a_program_match_independent_ones() {
        let (module, in_name) = brighten_module("realize_shared");
        let input = Buffer::from_fn_2d(ScalarType::Float(32), 16, 12, |x, y| (x * y) as f64);

        let owner = Realizer::new(&module)
            .input(in_name.clone(), input.clone())
            .threads(1);
        let program = owner.program().unwrap();
        let a = owner.realize(&[16, 12]).unwrap();

        let sharer = Realizer::with_program(&module, Arc::clone(&program))
            .input(in_name.clone(), input.clone())
            .threads(1);
        // The sharer did not compile: it hands back the same Arc.
        assert!(Arc::ptr_eq(&sharer.program().unwrap(), &program));
        let b = sharer.realize(&[16, 12]).unwrap();

        assert_eq!(a.output.to_f64_vec(), b.output.to_f64_vec());
        assert_eq!(a.counters, b.counters);
    }

    /// `realize_into` writes into the caller's buffer and returns it, and a
    /// buffer drawn from a pool produces the same image as a fresh one.
    #[test]
    fn realize_into_pooled_output_matches_fresh_output() {
        use halide_runtime::BufferPool;

        let (module, in_name) = brighten_module("realize_into");
        let input = Buffer::from_fn_2d(ScalarType::Float(32), 8, 8, |x, y| (x + y) as f64);
        let fresh = Realizer::new(&module)
            .input(in_name.clone(), input.clone())
            .threads(1)
            .realize(&[8, 8])
            .unwrap();

        let pool = Arc::new(BufferPool::default());
        // Dirty a buffer and return it so the next acquire is a reused hit.
        let dirty = pool.acquire(ScalarType::Float(32), &[8, 8]);
        dirty.set_coords_f64(&[0, 0], 999.0);
        drop(dirty);
        let out = pool.acquire(ScalarType::Float(32), &[8, 8]).detach();
        assert_eq!(pool.stats().hits, 1);
        let pooled = Realizer::new(&module)
            .input(in_name.clone(), input.clone())
            .threads(1)
            .realize_into(out)
            .unwrap();
        assert_eq!(fresh.output.to_f64_vec(), pooled.output.to_f64_vec());

        // Type and shape mismatches are errors, not silent corruption.
        let r = Realizer::new(&module).input(in_name.clone(), input.clone());
        assert!(r
            .realize_into(Buffer::with_extents(ScalarType::Int(32), &[8, 8]))
            .is_err());
        assert!(r
            .realize_into(Buffer::with_extents(ScalarType::Float(32), &[8]))
            .is_err());
        assert!(r
            .realize_into(Buffer::new(ScalarType::Float(32), &[(1, 8), (0, 8)]))
            .is_err());
    }

    /// With a buffer pool configured, scratch allocations are recycled
    /// across realizations (hits recorded in the counters) and outputs stay
    /// bit-identical on both backends.
    #[test]
    fn scratch_buffers_recycle_through_the_pool() {
        use halide_runtime::BufferPool;

        // blurx is computed at root → one Allocate statement per run.
        let input = ImageParam::new("realize_pool_in", Type::f32(), 2);
        let (x, y) = (Var::new("x"), Var::new("y"));
        let blurx = Func::new("realize_pool_blurx");
        blurx.define(
            &[x.clone(), y.clone()],
            input.at_clamped(vec![x.expr() - 1, y.expr()])
                + input.at_clamped(vec![x.expr() + 1, y.expr()]),
        );
        let out = Func::new("realize_pool_out");
        out.define(&[x.clone(), y.clone()], blurx.at(vec![x.expr(), y.expr()]));
        blurx.compute_root();
        let module = lower(&Pipeline::new(&out)).unwrap();
        let input_buf = Buffer::from_fn_2d(ScalarType::Float(32), 32, 16, |x, y| (x + y) as f64);

        for backend in Backend::ALL {
            let baseline = Realizer::new(&module)
                .input("realize_pool_in", input_buf.clone())
                .threads(1)
                .backend(backend)
                .realize(&[32, 16])
                .unwrap();

            let pool = Arc::new(BufferPool::default());
            let realizer = Realizer::new(&module)
                .input("realize_pool_in", input_buf.clone())
                .threads(1)
                .backend(backend)
                .buffer_pool(Arc::clone(&pool));
            let first = realizer.realize(&[32, 16]).unwrap();
            let second = realizer.realize(&[32, 16]).unwrap();
            assert_eq!(first.counters.pool_misses, 1, "{backend:?}");
            assert_eq!(second.counters.pool_hits, 1, "{backend:?}");
            assert_eq!(
                baseline.output.to_f64_vec(),
                second.output.to_f64_vec(),
                "{backend:?}"
            );
            assert_eq!(pool.stats().returns, 2, "{backend:?}");
        }
    }

    /// The profiler counts one invocation per produce-nest entry, agrees
    /// between backends, and does not perturb outputs or counters.
    #[test]
    fn profiler_counts_invocations_identically_on_both_backends() {
        let input = ImageParam::new("realize_prof_in", Type::f32(), 2);
        let (x, y) = (Var::new("x"), Var::new("y"));
        let blurx = Func::new("realize_prof_blurx");
        blurx.define(
            &[x.clone(), y.clone()],
            input.at_clamped(vec![x.expr() - 1, y.expr()])
                + input.at_clamped(vec![x.expr() + 1, y.expr()]),
        );
        let out = Func::new("realize_prof_out");
        out.define(&[x.clone(), y.clone()], blurx.at(vec![x.expr(), y.expr()]));
        // compute_at(y) re-enters blurx's produce nest once per scanline.
        blurx.compute_at(&out, "y");
        let module = lower(&Pipeline::new(&out)).unwrap();
        let input_buf = Buffer::from_fn_2d(ScalarType::Float(32), 16, 12, |x, y| (x + y) as f64);

        let mut per_backend = Vec::new();
        for backend in Backend::ALL {
            let plain = Realizer::new(&module)
                .input("realize_prof_in", input_buf.clone())
                .threads(1)
                .backend(backend)
                .realize(&[16, 12])
                .unwrap();
            let profiled = Realizer::new(&module)
                .input("realize_prof_in", input_buf.clone())
                .threads(1)
                .backend(backend)
                .profile(true);
            let r = profiled.realize(&[16, 12]).unwrap();
            assert_eq!(plain.output.to_f64_vec(), r.output.to_f64_vec());
            assert_eq!(plain.counters, r.counters, "{backend:?}");

            let report = profiled.profile_report().unwrap();
            let mut invocations: Vec<(String, u64)> = report
                .funcs
                .iter()
                .map(|f| (f.name.clone(), f.invocations))
                .collect();
            invocations.sort();
            let blurx_prof = report
                .funcs
                .iter()
                .find(|f| f.name == "realize_prof_blurx")
                .unwrap();
            assert_eq!(blurx_prof.invocations, 12, "{backend:?}");
            assert!(blurx_prof.peak_alloc_bytes > 0, "{backend:?}");
            let out_prof = report
                .funcs
                .iter()
                .find(|f| f.name == "realize_prof_out")
                .unwrap();
            assert_eq!(out_prof.invocations, 1, "{backend:?}");
            per_backend.push(invocations);
        }
        assert_eq!(per_backend[0], per_backend[1]);

        // An unprofiled realizer reports nothing.
        assert!(Realizer::new(&module).profile_report().is_none());
    }

    #[test]
    fn backend_names_round_trip() {
        for b in Backend::ALL {
            assert_eq!(Backend::from_name(b.name()), Some(b));
        }
        assert_eq!(Backend::from_name("interpreter"), Some(Backend::Interp));
        assert_eq!(Backend::from_name("llvm"), None);
        assert_eq!(Backend::default(), Backend::Compiled);
    }
}
