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
//! Per-op counts, instruction counts and optimizer reports are the
//! repository benchmark's (`benchmark/`, `exec.*` metrics), and their
//! deterministic gates run under `cargo test` (`tests/differential.rs`);
//! this emitter keeps only what that benchmark leaves out.
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
//! per-app speedups plus the headline `blur_speedup`.
//!
//! The emitter is also the perf gate: it asserts the compiled engine's
//! speedup over the interpreter on blur (whole app) and on the tuned
//! camera pipe and bilateral grid schedules — the select/gather-heavy
//! rows the predicated vector paths exist for — and, on the pyramid apps
//! (interpolate, local Laplacian), whose odd, halving extents only
//! vectorize through tail strategies, that the tuned compiled schedule
//! beats the scalar naive one by at least 2x.
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
use halide_exec::{Backend, Realizer};
use halide_pipelines::{apps::ScheduleChoice, AppKind};
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
    full_res: Vec<FullResRow>,
}

/// Builds `app` at `width`x`height` once, then returns the best wall time
/// of `reps` uninstrumented realizations on each of `backends`.
fn best_times<const N: usize>(
    app: AppKind,
    (width, height): (i64, i64),
    schedule: ScheduleChoice,
    threads: usize,
    reps: usize,
    backends: [Backend; N],
) -> [Duration; N] {
    let built = app
        .build(width, height, schedule)
        .expect("benchmark schedule lowers");
    let input = Arc::new(app.make_input(width, height));
    let extents = app.output_extents(width, height);
    backends.map(|backend| {
        let realizer = Realizer::new(&built.module)
            .input_shared(built.input_name.clone(), Arc::clone(&input))
            .threads(threads)
            .instrument(false)
            .backend(backend);
        (0..reps)
            .map(|_| {
                let r = realizer.realize(&extents).expect("benchmark schedule runs");
                r.wall_time
            })
            .min()
            .expect("at least one rep")
    })
}

const SPEC: CliSpec = CliSpec {
    usage: "bench_exec [--quick|--full] [--12mp] [--threads N] [--out FILE] [--trace FILE]",
    subcommands: &[],
    switches: &["--12mp"],
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
    let report = measure(&cfg, REPS, &full_res_sizes);

    let out_path = args.value("--out").unwrap_or("BENCH_exec.json");
    let mut json = String::new();
    report.to_json().write_pretty(&mut json);
    std::fs::write(out_path, &json).expect("writing the benchmark artifact");
    println!("wrote {out_path}");

    report.check_gates(args.full());
    observability_tier(&cfg, args.value("--trace"));
}

/// Runs the comparison rows and (for each of `full_res_sizes`) the
/// full-resolution tier.
fn measure(cfg: &HarnessConfig, reps: usize, full_res_sizes: &[(i64, i64)]) -> Report {
    let mut rows: Vec<Row> = Vec::new();
    for app in AppKind::ALL {
        for (schedule, label) in [
            (ScheduleChoice::Naive, "naive"),
            (ScheduleChoice::Tuned, "tuned"),
        ] {
            let [interp, compiled] = best_times(
                app,
                (cfg.width, cfg.height),
                schedule,
                cfg.threads,
                reps,
                [Backend::Interp, Backend::Compiled],
            );
            let row = Row {
                app: app.name(),
                schedule: label,
                interp,
                compiled,
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

    // Full-resolution tier: tuned schedules on the compiled backend at the
    // sizes real traffic ships. One rep each — a 12MP local Laplacian runs
    // for tens of seconds, which buries scheduling noise on its own.
    let mut full_res: Vec<FullResRow> = Vec::new();
    for app in AppKind::ALL {
        for &(w, h) in full_res_sizes {
            let [wall] = best_times(
                app,
                (w, h),
                ScheduleChoice::Tuned,
                cfg.threads,
                1,
                [Backend::Compiled],
            );
            let ms = wall.as_secs_f64() * 1e3;
            let mpix = (w * h) as f64 / 1e6 / wall.as_secs_f64().max(1e-12);
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
        let doc = measure(&cfg, 1, &[(64, 32)]).to_json();
        let checked_in = include_str!("../../../../BENCH_exec.json");
        artifact_layout::assert_matches_checked_in(&doc, checked_in);
    }
}
