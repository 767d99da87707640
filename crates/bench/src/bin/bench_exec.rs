//! Execution-engine benchmark: runs every app on both backends (the
//! compiled register machine and the reference tree-walking interpreter)
//! and emits `BENCH_exec.json` — the perf-trajectory artifact checked into
//! the repository root.
//!
//! ```text
//! cargo run --release -p halide-bench --bin bench_exec -- --quick
//! cargo run --release -p halide-bench --bin bench_exec -- --full --out BENCH_exec.json
//! cargo run --release -p halide-bench --bin bench_exec -- --full --12mp   # dev machines
//! ```
//!
//! The interp-vs-compiled comparison rows always run at the quick size
//! (192x128): interpreter rows at production sizes would take hours, and
//! the relative speedups are size-stable. `--full` instead adds the
//! **full-resolution tier** — every tuned schedule on the compiled
//! backend at 1920x1080 (one rep, the size real traffic ships), plus
//! 12MP (4000x3000) with `--12mp` — emitted as the `full_res` section.
//!
//! Per (app, schedule) the wall time of each backend is the best of
//! several runs (instrumentation off); the JSON carries per-row and
//! per-app speedups plus the headline `blur_speedup`. A separate
//! instrumented pass over every tuned schedule records the per-op table
//! (dense/strided/gather loads, dense/strided/scatter stores, masked
//! selects, masked loads/stores) so a speedup change is attributable to
//! the operations that moved — see the counter table in
//! `docs/execution.md`.
//!
//! The emitter is also the perf gate: it asserts the compiled engine's
//! speedup over the interpreter on blur (whole app) and on the tuned
//! camera pipe and bilateral grid schedules — the select/gather-heavy
//! rows the predicated vector paths exist for — plus the pre-codegen
//! optimizer's contract: on every app the optimized instruction count is
//! no larger than the unoptimized one, and on the tuned camera pipe the
//! optimizer removes at least 10% of the instructions. Two gates guard
//! the predicated-tail vectorizer specifically: every tuned schedule
//! must report `dense_loads > 0` (no silently-scalar "tuned" schedules),
//! and on the pyramid apps (interpolate, local Laplacian) — whose odd,
//! halving extents only vectorize through tail strategies — the tuned
//! compiled schedule must beat the scalar naive one by at least 2x.
//!
//! `--dump-pir` additionally prints each app's optimized linear program IR
//! (the final snapshot of `Program::compile_traced`) to stdout; see
//! `examples/pir_stages.rs` for the stage-by-stage view.
//!
//! The **observability tier** always runs last: the tuned camera pipe is
//! timed with the per-Func profiler + trace sink off and then on
//! (best-of-reps both ways), gating the enabled overhead below 10% — and
//! the profiled pass must attribute at least 95% of its samples to named
//! Funcs. `--trace out.json` additionally records compile telemetry and
//! the profiled phase into the global sink and writes a
//! chrome://tracing-compatible export (validated before it is written);
//! the comparison rows above always run with tracing disabled, so the
//! headline numbers are never polluted by instrumentation.

use std::sync::Arc;
use std::time::Duration;

use halide_bench::{Args, CliSpec, HarnessConfig};
use halide_exec::{Backend, OptLevel, OptReport, Program, Realizer};
use halide_pipelines::{apps::ScheduleChoice, AppKind};
use halide_runtime::CounterSnapshot;
use halide_trace::JsonValue;

/// Timing repetitions per (app, schedule, backend): the best run is
/// reported, which is the standard way to suppress scheduling noise.
const REPS: usize = 3;

struct Row {
    app: &'static str,
    schedule: &'static str,
    interp: Duration,
    compiled: Duration,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.interp.as_secs_f64() / self.compiled.as_secs_f64().max(1e-12)
    }
}

/// One row of the full-resolution tier: a tuned schedule on the compiled
/// backend at a production image size (single rep — at these sizes one run
/// is long enough that scheduling noise is immaterial).
struct FullResRow {
    app: &'static str,
    width: i64,
    height: i64,
    compiled_ms: f64,
    mpix_per_s: f64,
}

/// Everything one run measures: what `BENCH_exec.json` records and the
/// gates read.
struct Report {
    cfg: HarnessConfig,
    reps: usize,
    rows: Vec<Row>,
    /// Per-op counters of every tuned schedule.
    ops: Vec<(&'static str, CounterSnapshot)>,
    /// The optimizer's report for every tuned schedule.
    pir: Vec<(&'static str, OptReport)>,
    full_res: Vec<FullResRow>,
}

fn best_time(
    app: AppKind,
    cfg: &HarnessConfig,
    reps: usize,
    schedule: ScheduleChoice,
    backend: Backend,
) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..reps {
        let (result, _) = app
            .run_with_backend(cfg.width, cfg.height, schedule, cfg.threads, backend)
            .expect("benchmark schedule lowers");
        let r = result.expect("benchmark schedule runs");
        best = best.min(r.wall_time);
    }
    best
}

const SPEC: CliSpec = CliSpec {
    usage: "bench_exec [--quick|--full] [--12mp] [--threads N] [--out FILE] \
            [--trace FILE] [--dump-pir]",
    subcommands: &[],
    switches: &["--12mp", "--dump-pir"],
    valued: &["--out", "--trace"],
};

fn main() {
    let args = Args::from_env(&SPEC);
    // The comparison rows are pinned at the quick size regardless of
    // `--full` (see the module docs): the interpreter rows dominate the
    // runtime and would take hours at production sizes. `--full` selects
    // the compiled-only full-resolution tier instead.
    let cfg = HarnessConfig {
        width: 192,
        height: 128,
        ..args.config()
    };
    let mut full_res_sizes = Vec::new();
    if args.full() {
        full_res_sizes.push((1920, 1080));
        if args.switch("--12mp") {
            full_res_sizes.push((4000, 3000));
        }
    }
    let report = measure(&cfg, REPS, &full_res_sizes, args.switch("--dump-pir"));

    let out_path = args.value("--out").unwrap_or("BENCH_exec.json");
    let mut json = String::new();
    report.to_json().write_pretty(&mut json);
    std::fs::write(out_path, &json).expect("writing the benchmark artifact");
    println!("wrote {out_path}");

    report.check_gates(args.full());
    observability_tier(&cfg, args.value("--trace"));
}

/// Runs the comparison rows, the instrumented pass, the optimizer reports
/// and (for each of `full_res_sizes`) the full-resolution tier.
fn measure(
    cfg: &HarnessConfig,
    reps: usize,
    full_res_sizes: &[(i64, i64)],
    dump_pir: bool,
) -> Report {
    let mut rows: Vec<Row> = Vec::new();
    for app in AppKind::ALL {
        for (schedule, label) in [
            (ScheduleChoice::Naive, "naive"),
            (ScheduleChoice::Tuned, "tuned"),
        ] {
            let row = Row {
                app: app.name(),
                schedule: label,
                interp: best_time(app, cfg, reps, schedule, Backend::Interp),
                compiled: best_time(app, cfg, reps, schedule, Backend::Compiled),
            };
            eprintln!(
                "{:<20} {:<6} interp {:>10.2?}ms  compiled {:>10.2?}ms  speedup {:.2}x",
                row.app,
                label,
                row.interp.as_secs_f64() * 1e3,
                row.compiled.as_secs_f64() * 1e3,
                row.speedup(),
            );
            rows.push(row);
        }
    }

    // Per-op counters for every tuned schedule, from one instrumented
    // compiled run (the interpreter's counts are identical by the
    // differential-test contract, so one engine suffices).
    let mut ops: Vec<(&'static str, CounterSnapshot)> = Vec::new();
    for app in AppKind::ALL {
        let (result, _) = app
            .run_instrumented(
                cfg.width,
                cfg.height,
                ScheduleChoice::Tuned,
                cfg.threads,
                Backend::Compiled,
            )
            .expect("tuned schedule lowers");
        let c = result.expect("tuned schedule runs").counters;
        eprintln!("{:<20} tuned  {c}", app.name());
        ops.push((app.name(), c));
    }

    // The optimizer's report for every tuned schedule: instruction counts
    // before/after the pass pipeline and which passes did the eliminating.
    // Compilation is pure (no execution), so this adds negligible time.
    let mut pir: Vec<(&'static str, OptReport)> = Vec::new();
    for app in AppKind::ALL {
        let built = app
            .build(cfg.width, cfg.height, ScheduleChoice::Tuned)
            .expect("tuned schedule lowers");
        let (program, stages) = Program::compile_traced(&built.module, OptLevel::Default)
            .expect("tuned schedule compiles");
        let report = program.opt_report().clone();
        eprintln!(
            "{:<20} tuned  pir {} -> {} insts in {} iteration(s)",
            app.name(),
            report.before_insts,
            report.after_insts,
            report.iterations
        );
        if dump_pir {
            let last = stages.last().expect("the trace records the linearization");
            println!("=== {} (tuned) optimized PIR ===", app.name());
            print!("{}", last.pir);
        }
        pir.push((app.name(), report));
    }

    // Full-resolution tier: tuned schedules on the compiled backend at the
    // sizes real traffic ships. One rep each — a 12MP local Laplacian runs
    // for tens of seconds, which buries scheduling noise on its own.
    let mut full_res: Vec<FullResRow> = Vec::new();
    for app in AppKind::ALL {
        for &(w, h) in full_res_sizes {
            let (result, _) = app
                .run_with_backend(w, h, ScheduleChoice::Tuned, cfg.threads, Backend::Compiled)
                .expect("tuned schedule lowers at full resolution");
            let r = result.expect("tuned schedule runs at full resolution");
            let ms = r.wall_time.as_secs_f64() * 1e3;
            let mpix = (w * h) as f64 / 1e6 / r.wall_time.as_secs_f64().max(1e-12);
            eprintln!(
                "{:<20} tuned  {w}x{h} compiled {ms:>10.2}ms  ({mpix:.1} MPix/s)",
                app.name()
            );
            full_res.push(FullResRow {
                app: app.name(),
                width: w,
                height: h,
                compiled_ms: ms,
                mpix_per_s: mpix,
            });
        }
    }

    Report {
        cfg: *cfg,
        reps,
        rows,
        ops,
        pir,
        full_res,
    }
}

impl Report {
    fn row(&self, app: &str, schedule: &str) -> &Row {
        self.rows
            .iter()
            .find(|r| r.app == app && r.schedule == schedule)
            .expect("every (app, schedule) pair was measured")
    }

    /// Per-app aggregate: total interpreter time over total compiled time
    /// for the app's schedules (the time to run that app's benchmark set on
    /// each backend).
    fn app_speedup(&self, name: &str) -> f64 {
        let (i, c) = self
            .rows
            .iter()
            .filter(|r| r.app == name)
            .fold((0.0f64, 0.0f64), |(i, c), r| {
                (i + r.interp.as_secs_f64(), c + r.compiled.as_secs_f64())
            });
        i / c.max(1e-12)
    }

    /// The `BENCH_exec.json` document.
    fn to_json(&self) -> JsonValue {
        let ms = |d: Duration| JsonValue::rounded(d.as_secs_f64() * 1e3, 3);
        let rows: Vec<JsonValue> = self
            .rows
            .iter()
            .map(|r| {
                JsonValue::object([
                    ("app", JsonValue::from(r.app)),
                    ("schedule", r.schedule.into()),
                    ("interp_ms", ms(r.interp)),
                    ("compiled_ms", ms(r.compiled)),
                    ("speedup", JsonValue::rounded(r.speedup(), 2)),
                ])
            })
            .collect();
        let tuned_ops = self.ops.iter().map(|(name, c)| {
            let counters = JsonValue::object([
                ("arith", c.arith_ops),
                ("loads", c.loads),
                ("dense_loads", c.dense_loads),
                ("strided_loads", c.strided_loads),
                ("gather_loads", c.gather_loads),
                ("masked_loads", c.masked_loads),
                ("stores", c.stores),
                ("dense_stores", c.dense_stores),
                ("strided_stores", c.strided_stores),
                ("scatter_stores", c.scatter_stores),
                ("masked_stores", c.masked_stores),
                ("masked_selects", c.masked_selects),
            ]);
            (*name, counters)
        });
        let pir = self.pir.iter().map(|(name, r)| {
            let report = JsonValue::object([
                ("before_insts", JsonValue::from(r.before_insts)),
                ("after_insts", r.after_insts.into()),
                ("iterations", r.iterations.into()),
                (
                    "passes",
                    JsonValue::object(r.passes.iter().map(|p| (p.name, p.changes))),
                ),
            ]);
            (*name, report)
        });
        let full_res: Vec<JsonValue> = self
            .full_res
            .iter()
            .map(|r| {
                JsonValue::object([
                    ("app", JsonValue::from(r.app)),
                    ("width", r.width.into()),
                    ("height", r.height.into()),
                    ("compiled_ms", JsonValue::rounded(r.compiled_ms, 3)),
                    ("mpix_per_s", JsonValue::rounded(r.mpix_per_s, 1)),
                ])
            })
            .collect();
        let app_speedups = AppKind::ALL
            .iter()
            .map(|a| (a.name(), JsonValue::rounded(self.app_speedup(a.name()), 2)));
        JsonValue::object([
            (
                "config",
                JsonValue::object([
                    ("width", JsonValue::from(self.cfg.width)),
                    ("height", self.cfg.height.into()),
                    ("threads", self.cfg.threads.into()),
                    ("reps", self.reps.into()),
                ]),
            ),
            ("rows", rows.into()),
            ("tuned_ops", JsonValue::object(tuned_ops)),
            ("pir", JsonValue::object(pir)),
            ("full_res", full_res.into()),
            ("app_speedups", JsonValue::object(app_speedups)),
            (
                "blur_speedup",
                JsonValue::rounded(self.app_speedup("Blur"), 2),
            ),
        ])
    }

    /// The perf gates (see the module docs); panics on the first one that
    /// does not hold.
    fn check_gates(&self, full_tier: bool) {
        let blur = self.app_speedup("Blur");
        println!("blur speedup (compiled over interp): {blur:.2}x");
        assert!(
            blur >= 5.0,
            "the compiled backend must be at least 5x faster than the interpreter on blur, got {blur:.2}x"
        );
        // The predicated hot paths: the select-heavy camera pipe and the
        // gather-heavy bilateral grid must hold >= 5x on their *tuned*
        // (vectorized) schedules, where masked blends and bulk gather/scatter
        // carry the load.
        for app in ["Camera pipe", "Bilateral grid"] {
            let s = self.row(app, "tuned").speedup();
            println!("{app} tuned speedup (compiled over interp): {s:.2}x");
            assert!(
                s >= 5.0,
                "the compiled backend must be at least 5x faster than the interpreter on the tuned {app} schedule, got {s:.2}x"
            );
        }
        // No silently-scalar "tuned" schedules: every app's tuned schedule must
        // issue dense vector loads. The pyramid apps sat at zero for several
        // releases because their odd, halving extents defeated divisibility-only
        // vectorization; predicated tails removed that excuse.
        for (name, c) in &self.ops {
            println!("{name} tuned dense loads: {}", c.dense_loads);
            assert!(
                c.dense_loads > 0,
                "the tuned {name} schedule performs no dense vector loads — it is \
                 silently scalar; vectorize it (non-dividing extents take a tail \
                 strategy: guard_with_if, predicate, or round_up)"
            );
        }
        // The pyramid apps only vectorize through tail strategies; the tuned
        // schedule must beat the scalar naive one by >= 2x on the compiled
        // backend or the predicated-tail path has regressed.
        for app in ["Interpolate", "Local Laplacian"] {
            let naive = self.row(app, "naive").compiled.as_secs_f64();
            let tuned = self.row(app, "tuned").compiled.as_secs_f64();
            let s = naive / tuned.max(1e-12);
            println!("{app} tuned over naive (compiled): {s:.2}x");
            assert!(
                s >= 2.0,
                "the vectorized tuned {app} schedule must be at least 2x faster than \
                 the scalar naive schedule on the compiled backend, got {s:.2}x"
            );
        }
        if full_tier {
            assert!(
                self.full_res.iter().filter(|r| r.width == 1920).count() == AppKind::ALL.len(),
                "--full must measure every app at 1080p"
            );
        }
        // The optimizer's gates: it must never grow a program, and on the tuned
        // camera pipe (the schedule the pass pipeline was sized against) it must
        // remove at least 10% of the instructions.
        for (name, r) in &self.pir {
            assert!(
                r.after_insts <= r.before_insts,
                "the optimizer grew {name}: {} -> {} instructions",
                r.before_insts,
                r.after_insts
            );
        }
        let cam = &self
            .pir
            .iter()
            .find(|(name, _)| *name == "Camera pipe")
            .expect("camera pipe was compiled")
            .1;
        let reduction = 1.0 - cam.after_insts as f64 / cam.before_insts.max(1) as f64;
        println!(
            "camera pipe tuned instruction reduction: {:.1}% ({} -> {})",
            reduction * 100.0,
            cam.before_insts,
            cam.after_insts
        );
        assert!(
            reduction >= 0.10,
            "the optimizer must remove at least 10% of the tuned camera pipe's instructions, got {:.1}%",
            reduction * 100.0
        );
    }
}

/// The observability tier: overhead + attribution gates on the tuned
/// camera pipe, and (with `--trace out.json`) a validated chrome://tracing
/// export of the compile telemetry and the profiled run.
///
/// Runs after every headline measurement so enabling the global sink here
/// cannot pollute the comparison rows.
fn observability_tier(cfg: &HarnessConfig, trace_out: Option<&str>) {
    // Build inside a traced region so the lowering-phase spans land in
    // the export; the sink is re-enabled for the "on" measurement below,
    // which also captures the program-compile spans (the profiled
    // realizer compiles lazily on its first realize).
    halide_trace::set_enabled(true);
    let built = AppKind::CameraPipe
        .build(cfg.width, cfg.height, ScheduleChoice::Tuned)
        .expect("tuned camera pipe lowers");
    let input = Arc::new(AppKind::CameraPipe.make_input(cfg.width, cfg.height));
    let extents = AppKind::CameraPipe.output_extents(cfg.width, cfg.height);
    halide_trace::set_enabled(false);

    // Overhead gate: best-of-reps with the whole layer off, then on
    // (sampling profiler *and* trace sink). Sampling profilers are only
    // usable if turning them on is nearly free; this pins "nearly" at 10%.
    let best_with = |profile: bool| -> (Duration, Option<halide_trace::ProfileReport>) {
        let realizer = Realizer::new(&built.module)
            .input_shared(built.input_name.clone(), Arc::clone(&input))
            .threads(cfg.threads)
            .backend(Backend::Compiled)
            .profile(profile);
        let mut best = Duration::MAX;
        for _ in 0..5 {
            let r = realizer.realize(&extents).expect("tuned camera pipe runs");
            best = best.min(r.wall_time);
        }
        (best, realizer.profile_report())
    };
    let (off, _) = best_with(false);
    halide_trace::set_enabled(true);
    let (on, report) = best_with(true);
    halide_trace::set_enabled(false);
    let report = report.expect("profiled realizer yields a report");
    // Attribution gate first (its report is also the diagnostic to read
    // when the overhead gate below trips).
    print!("{report}");
    let overhead = on.as_secs_f64() / off.as_secs_f64().max(1e-12);
    println!(
        "camera pipe tuned observability overhead: off {:.3}ms on {:.3}ms ({:+.1}%)",
        off.as_secs_f64() * 1e3,
        on.as_secs_f64() * 1e3,
        (overhead - 1.0) * 100.0
    );
    assert!(
        overhead < 1.10,
        "enabling the profiler must cost < 10% on the tuned camera pipe, got {:.1}%",
        (overhead - 1.0) * 100.0
    );
    assert!(
        report.total_samples > 0,
        "the profiled camera pipe runs must be sampled at least once"
    );
    let frac = report.attributed_frac();
    assert!(
        frac >= 0.95,
        "the profiler must attribute >= 95% of tuned camera pipe samples to named Funcs, got {:.1}%",
        frac * 100.0
    );

    if let Some(path) = trace_out {
        let json = halide_trace::export_json();
        halide_trace::validate_json_syntax(&json).expect("exported trace is well-formed JSON");
        assert!(
            halide_trace::global()
                .events()
                .iter()
                .any(|e| e.cat == "compile"),
            "the traced build must record compile-telemetry spans"
        );
        std::fs::write(path, &json).expect("writing the trace export");
        println!(
            "wrote {path} ({} events)",
            halide_trace::global().events().len()
        );
    }
}

#[cfg(test)]
#[path = "../artifact_layout.rs"]
mod artifact_layout;

#[cfg(test)]
mod tests {
    use super::*;

    /// The quick measurement at a thumbnail size: what it writes parses
    /// back to the same document and has the sections, in order and with
    /// the same keys, of the checked-in `BENCH_exec.json`.
    #[test]
    fn artifact_round_trips_and_matches_the_checked_in_layout() {
        let cfg = HarnessConfig {
            width: 64,
            height: 32,
            threads: 1,
            ..Args::parse([], &SPEC).unwrap().config()
        };
        let doc = measure(&cfg, 1, &[(64, 32)], false).to_json();
        let checked_in = include_str!("../../../../BENCH_exec.json");
        artifact_layout::assert_matches_checked_in(&doc, checked_in, &[]);
    }
}
