//! Building a program layer by layer, from outside: construct the algorithm
//! (`lang`), apply a schedule (`schedule`), lower (`lower`), compile
//! (`exec`). `AppKind::build` does the first three in one call; the
//! benchmark spells them out so each layer's call can be timed on its own.
//! The constructor arguments mirror `AppKind::build`, so these are the same
//! programs the server compiles for itself.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use halide_exec::{Backend, OptLevel, OptReport, Program, Realization, Realizer};
use halide_ir::{Expr, IrVisitor, Stmt};
use halide_lang::Pipeline;
use halide_lower::{lower, Module};
use halide_pipelines::apps::pyramid_levels;
use halide_pipelines::{
    bilateral_grid::BilateralGridApp, blur::BlurApp, blur::BlurSchedule,
    camera_pipe::CameraPipeApp, histogram::HistogramApp, interpolate::InterpolateApp,
    local_laplacian::LocalLaplacianApp, AppKind, ScheduleChoice,
};
use halide_runtime::Buffer;

use crate::spans::Recorder;

/// The optimizer level every program is compiled at. Pinned: the benchmark
/// never reads `HALIDE_OPT` (and refuses to run when it is set).
pub const OPT_LEVEL: OptLevel = OptLevel::Default;
/// The engine every timed realization runs on.
pub const BACKEND: Backend = Backend::Compiled;

/// Wall time of each layer's share of one program build.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseTimes {
    /// `App::new` plus `App::pipeline` (graph discovery).
    pub lang: Duration,
    /// The schedule directives.
    pub schedule: Duration,
    /// `halide_lower::lower`.
    pub lower: Duration,
    /// `Program::compile_with`.
    pub compile: Duration,
}

impl PhaseTimes {
    /// The whole build.
    pub fn total(&self) -> Duration {
        self.lang + self.schedule + self.lower + self.compile
    }
}

/// One compiled program and everything needed to realize it.
pub struct Built {
    /// Which application.
    pub app: AppKind,
    /// Which schedule it was built with.
    pub schedule: ScheduleChoice,
    /// The size it was built for (and is realized at).
    pub size: (i64, i64),
    /// The lowered module.
    pub module: Module,
    /// The compiled program.
    pub program: Arc<Program>,
    /// Name the input binds under.
    pub input_name: String,
    /// Funcs in the pipeline graph.
    pub funcs: usize,
    /// Where the build time went.
    pub phases: PhaseTimes,
}

impl Built {
    /// The optimizer's report for this program.
    pub fn opt_report(&self) -> &OptReport {
        self.program.opt_report()
    }

    /// Output pixels of one realization (channels are not pixels).
    pub fn pixels(&self) -> f64 {
        (self.size.0 * self.size.1) as f64
    }

    /// A realizer over the shared program — what a compile-once caller
    /// constructs per call. Per-op counters and the profiler are off unless
    /// the caller turns them on.
    pub fn realizer(&self, input: &Arc<Buffer>, threads: usize) -> Realizer<'_> {
        Realizer::with_program(&self.module, Arc::clone(&self.program))
            .input_shared(self.input_name.clone(), Arc::clone(input))
            .threads(threads)
            .instrument(false)
            .backend(BACKEND)
    }

    /// Binds and realizes once at the built size, recording `exec.bind` and
    /// `exec.realize` spans; returns the realization and the outer wall time
    /// of both.
    ///
    /// # Errors
    ///
    /// The realization failed.
    pub fn realize(
        &self,
        rec: &Recorder,
        op: u64,
        input: &Arc<Buffer>,
        threads: usize,
    ) -> Result<(Realization, Duration), String> {
        let (realizer, bind) = rec.span("exec.bind", op, || self.realizer(input, threads));
        let extents = self.app.output_extents(self.size.0, self.size.1);
        let (result, run) = rec.span("exec.realize", op, || realizer.realize(&extents));
        result.map(|r| (r, bind + run)).map_err(|e| {
            format!(
                "{} {:?}: realize failed: {e}",
                self.app.slug(),
                self.schedule
            )
        })
    }
}

/// The benchmark's naive schedule: every stage at root, every loop serial.
/// For blur that is *not* `BlurSchedule::BreadthFirst`, which parallelizes
/// the output rows; `realize_naive` must run no parallel loop at all.
fn naive_blur(app: &BlurApp) {
    app.blurx.compute_root();
}

/// Builds `app` at `width`×`height` under `schedule`, one timed (and, when
/// the recorder is on, recorded) call per layer.
///
/// # Errors
///
/// Lowering or compilation failed; the message names the program.
pub fn build(
    rec: &Recorder,
    op: u64,
    app: AppKind,
    schedule: ScheduleChoice,
    width: i64,
    height: i64,
) -> Result<Built, String> {
    let tuned = schedule == ScheduleChoice::Tuned;
    let levels = pyramid_levels(width, height);
    // Every app type has its own constructor and `schedule_good`, but the
    // same `pipeline()` and `input`; only blur's schedules are spelled out.
    macro_rules! app {
        ($new:expr) => {
            app!($new, |a| if tuned {
                a.schedule_good()
            })
        };
        ($new:expr, $schedule:expr) => {
            staged(
                rec,
                (op, app, schedule, width, height),
                $new,
                $schedule,
                |a| (a.pipeline(), a.input.name().to_string()),
            )
        };
    }
    match app {
        AppKind::Blur => app!(BlurApp::new, |a| if tuned {
            BlurSchedule::ParallelTiledVector.apply(a)
        } else {
            naive_blur(a)
        }),
        AppKind::Histogram => app!(|| HistogramApp::new(width as i32, height as i32)),
        AppKind::BilateralGrid => app!(BilateralGridApp::new),
        AppKind::CameraPipe => app!(|| CameraPipeApp::new(2.2, 0.8)),
        AppKind::Interpolate => app!(|| InterpolateApp::new(levels)),
        AppKind::LocalLaplacian => app!(|| LocalLaplacianApp::new(levels.min(4), 8, 1.0, 0.7)),
    }
}

/// The four layer calls, shared by every app type `A`.
fn staged<A>(
    rec: &Recorder,
    (op, app, schedule, width, height): (u64, AppKind, ScheduleChoice, i64, i64),
    new: impl FnOnce() -> A,
    apply_schedule: impl FnOnce(&A),
    pipeline_and_input: impl FnOnce(&A) -> (Pipeline, String),
) -> Result<Built, String> {
    let what = |stage: &str, e: String| format!("{} {schedule:?}: {stage} failed: {e}", app.slug());
    let (frontend, t_new) = rec.span("lang.build", op, new);
    let ((), t_schedule) = rec.span("schedule.apply", op, || apply_schedule(&frontend));
    let ((pipeline, input_name), t_graph) =
        rec.span("lang.build", op, || pipeline_and_input(&frontend));
    let (module, t_lower) = rec.span("lower.lower", op, || lower(&pipeline));
    let module = module.map_err(|e| what("lowering", e.to_string()))?;
    let (program, t_compile) = rec.span("exec.compile", op, || {
        Program::compile_with(&module, OPT_LEVEL)
    });
    let program = program.map_err(|e| what("compilation", e.to_string()))?;
    Ok(Built {
        app,
        schedule,
        size: (width, height),
        funcs: pipeline.len(),
        module,
        program: Arc::new(program),
        input_name,
        phases: PhaseTimes {
            lang: t_new + t_graph,
            schedule: t_schedule,
            lower: t_lower,
            compile: t_compile,
        },
    })
}

/// Statement plus expression nodes of a lowered body — the size of the IR
/// `lower` hands to `exec`, an exact count.
pub fn stmt_nodes(stmt: &Stmt) -> u64 {
    struct Counter(u64);
    impl IrVisitor for Counter {
        fn visit_expr(&mut self, e: &Expr) {
            self.0 += 1;
            halide_ir::visit_expr_children(self, e);
        }
        fn visit_stmt(&mut self, s: &Stmt) {
            self.0 += 1;
            halide_ir::visit_stmt_children(self, s);
        }
    }
    let mut c = Counter(0);
    c.visit_stmt(stmt);
    c.0
}

/// The `lang`, `schedule`, `lower` and compile-half `exec` layer metrics of a
/// set of builds, summed over the programs; `phases[i]` is the time to
/// report for `programs[i]` (its own, or a median over repeated builds).
pub fn layer_metrics(programs: &[&Built], phases: &[PhaseTimes]) -> BTreeMap<String, f64> {
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let sum = |f: fn(&PhaseTimes) -> Duration| ms(phases.iter().map(f).sum());
    let mut m = BTreeMap::new();
    let (lower_ms, compile_ms) = (sum(|p| p.lower), sum(|p| p.compile));
    m.insert("lang.build_ms".to_string(), sum(|p| p.lang));
    m.insert(
        "lang.funcs".into(),
        programs.iter().map(|b| b.funcs).sum::<usize>() as f64,
    );
    m.insert("schedule.apply_ms".into(), sum(|p| p.schedule));
    m.insert("lower.lower_ms".into(), lower_ms);
    for (b, p) in programs.iter().zip(phases) {
        if b.schedule == ScheduleChoice::Tuned {
            m.insert(format!("lower.lower_ms.{}", b.app.slug()), ms(p.lower));
        }
    }
    let nodes: u64 = programs.iter().map(|b| stmt_nodes(&b.module.stmt)).sum();
    m.insert("lower.stmt_nodes".into(), nodes as f64);
    m.insert(
        "lower.us_per_stmt_node".into(),
        lower_ms * 1e3 / nodes as f64,
    );

    let reports: Vec<_> = programs.iter().map(|b| b.opt_report()).collect();
    let pass_ns: u64 = reports
        .iter()
        .flat_map(|r| &r.passes)
        .map(|p| p.nanos)
        .sum();
    let before: usize = reports.iter().map(|r| r.before_insts).sum();
    m.insert("exec.compile_ms".into(), compile_ms);
    m.insert("exec.opt_pass_ms".into(), pass_ns as f64 / 1e6);
    m.insert(
        "exec.linearize_emit_ms".into(),
        compile_ms - pass_ns as f64 / 1e6,
    );
    m.insert("exec.pir_insts_before".into(), before as f64);
    m.insert(
        "exec.pir_insts_after".into(),
        reports.iter().map(|r| r.after_insts).sum::<usize>() as f64,
    );
    m.insert(
        "exec.opt_iterations".into(),
        reports.iter().map(|r| u64::from(r.iterations)).sum::<u64>() as f64,
    );
    for pass in crate::spec::OPT_PASSES {
        let changes: u64 = reports
            .iter()
            .flat_map(|r| &r.passes)
            .filter(|p| p.name == pass)
            .map(|p| p.changes)
            .sum();
        m.insert(format!("exec.opt_changes.{pass}"), changes as f64);
    }
    m.insert(
        "exec.compile_us_per_pir_inst".into(),
        compile_ms * 1e3 / before as f64,
    );
    m
}

/// The counts among [`layer_metrics`]' output that must repeat exactly
/// between two runs of one commit.
pub fn exact_counts(layers: &BTreeMap<String, f64>) -> BTreeMap<String, f64> {
    let mut exact_counts = BTreeMap::new();
    for (name, v) in layers {
        let exact = name == "lang.funcs"
            || name == "lower.stmt_nodes"
            || name.starts_with("exec.pir_insts")
            || name == "exec.opt_iterations"
            || name.starts_with("exec.opt_changes.");
        if exact {
            exact_counts.insert(name.clone(), *v);
        }
    }
    exact_counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;

    #[test]
    fn outside_build_realizes_the_same_pixels_as_appkind_build() {
        let rec = Recorder::new();
        for app in [AppKind::Blur, AppKind::CameraPipe] {
            let ours = build(&rec, 0, app, ScheduleChoice::Tuned, 64, 32).unwrap();
            let input = Arc::new(app.make_input(64, 32));
            let (got, _) = ours.realize(&rec, 0, &input, 1).unwrap();

            let theirs = app.build(64, 32, ScheduleChoice::Tuned).unwrap();
            let want = Realizer::new(&theirs.module)
                .input_shared(theirs.input_name.clone(), Arc::clone(&input))
                .threads(1)
                .realize(&app.output_extents(64, 32))
                .unwrap();
            assert_eq!(oracle::check(&got.output, &want.output), Ok(()));
            assert!(ours.funcs >= 2 && stmt_nodes(&ours.module.stmt) > 10);
        }
    }

    #[test]
    fn naive_blur_runs_no_parallel_loop() {
        let rec = Recorder::new();
        let naive = build(&rec, 0, AppKind::Blur, ScheduleChoice::Naive, 64, 32).unwrap();
        let input = Arc::new(AppKind::Blur.make_input(64, 32));
        let (r, _) = naive.realize(&rec, 0, &input, 1).unwrap();
        assert_eq!(r.counters.parallel_tasks, 0);
    }
}
