//! `realize_tuned` and `realize_naive`: pre-compiled programs realized warm.
//!
//! The two share every line of this file and differ in the plan only —
//! tuned schedules on `T` threads at production-ish sizes versus all-root
//! serial schedules on one thread at 256×192 — because the point of the
//! pair is that they drive the *same* engine differently: a vector-path or
//! thread-pool change must move the first and leave the second alone, a
//! dispatch or register-file change must move both.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use halide_pipelines::{blur, histogram, AppKind, ScheduleChoice};
use halide_runtime::Buffer;

use crate::oracle::{self, ORACLE_SIZE};
use crate::programs::{self, Built, PhaseTimes};
use crate::rng::Rng;
use crate::spans::Recorder;
use crate::spec::REALIZE_APPS;
use crate::stats::{geomean, median};
use crate::{env, run_segments, EndToEndSamples, Outcome, RunConfig, Timed};

/// Which of the two realize workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flavour {
    /// Tuned schedules, `T` threads.
    Tuned,
    /// All-root serial schedules, one thread.
    Naive,
}

/// One app's place in a round.
struct Slot {
    app: AppKind,
    size: (i64, i64),
    /// Realizations per round (the cheap naive apps run twice so every app
    /// contributes a comparable share of the round).
    reps: usize,
}

struct Plan {
    schedule: ScheduleChoice,
    threads: usize,
    slots: Vec<Slot>,
}

fn plan(cfg: &RunConfig, flavour: Flavour) -> Plan {
    let slot = |app, size, reps| Slot { app, size, reps };
    let mut plan = match flavour {
        // Blur and histogram are cheap per pixel, so they run at 960×540; the
        // deep pipelines at 256×192 cost about the same per realize. One
        // round is ~0.9 s at T = 1, so each of a run's segments has two or
        // three (at 1080p and 512×384 a round took 4 s).
        Flavour::Tuned => Plan {
            schedule: ScheduleChoice::Tuned,
            threads: env::load_threads(),
            slots: REALIZE_APPS
                .iter()
                .map(|&app| {
                    let big = matches!(app, AppKind::Blur | AppKind::Histogram);
                    slot(app, if big { (960, 540) } else { (256, 192) }, 1)
                })
                .collect(),
        },
        // Local Laplacian is left out: > 1 s per naive realize at this size
        // would halve the number of rounds. One round is ~0.8 s.
        Flavour::Naive => Plan {
            schedule: ScheduleChoice::Naive,
            threads: 1,
            slots: vec![
                slot(AppKind::Blur, (256, 192), 2),
                slot(AppKind::Histogram, (256, 192), 2),
                slot(AppKind::CameraPipe, (256, 192), 1),
                slot(AppKind::Interpolate, (256, 192), 1),
            ],
        },
    };
    if cfg.smoke {
        for s in &mut plan.slots {
            s.size = ORACLE_SIZE;
            s.reps = 1;
        }
    }
    plan
}

/// A program bound to its input, with its first output and how many
/// parallel tasks producing it ran (a structural counter: always collected).
struct Ready {
    built: Built,
    input: Arc<Buffer>,
    first_output: Buffer,
    parallel_tasks: u64,
}

/// One full set-up: build every program, generate its input, realize once.
fn set_up(plan: &Plan, rec: &Recorder) -> Result<(Vec<Ready>, Duration), String> {
    let start = Instant::now();
    let mut ready = Vec::new();
    for (i, s) in plan.slots.iter().enumerate() {
        let op = i as u64;
        let built = programs::build(rec, op, s.app, plan.schedule, s.size.0, s.size.1)?;
        let input = Arc::new(s.app.make_input(s.size.0, s.size.1));
        let (warm, _) = built.realize(rec, op, &input, plan.threads)?;
        ready.push(Ready {
            parallel_tasks: warm.counters.parallel_tasks,
            first_output: warm.output,
            built,
            input,
        });
    }
    Ok((ready, start.elapsed()))
}

/// Checks the first outputs: blur and histogram against the hand-written
/// reference at the timed size, every app against the interpreter at
/// [`ORACLE_SIZE`] under this workload's schedule and thread count.
fn check_first_outputs(plan: &Plan, ready: &[Ready], rec: &Recorder, out: &mut Outcome) {
    for (i, r) in ready.iter().enumerate() {
        let app = r.built.app;
        let ((), _) = rec.span("oracle.check", i as u64, || {
            if let Some(expected) = oracle::hand_written_reference(app, &r.input) {
                if let Err(e) = oracle::check(&r.first_output, &expected) {
                    out.fail(format!("{} vs hand-written reference: {e}", app.slug()));
                }
            }
            let (w, h) = ORACLE_SIZE;
            let verdict = oracle::interpreter_reference(app, w, h).and_then(|expected| {
                let small = programs::build(&Recorder::new(), 0, app, plan.schedule, w, h)?;
                let input = Arc::new(app.make_input(w, h));
                let (got, _) = small.realize(&Recorder::new(), 0, &input, plan.threads)?;
                oracle::check(&got.output, &expected)
            });
            if let Err(e) = verdict {
                out.fail(format!("{} vs interpreter at {w}x{h}: {e}", app.slug()));
            }
        });
    }
}

/// What one timed round produced.
#[derive(Default)]
struct Round {
    wall: Duration,
    /// Latency of every successful operation, ms.
    latencies_ms: Vec<f64>,
    /// Mean latency per slot this round, ms (NaN if every rep failed).
    per_slot_ms: Vec<f64>,
    /// Outer wall minus `Realization::wall_time`, per operation, µs.
    overhead_us: Vec<f64>,
}

/// Runs one round: every slot's reps, in an order drawn from `ctx.rng`.
fn run_round(
    plan: &Plan,
    ready: &[Ready],
    rec: &Recorder,
    ctx: &mut Ctx,
    out: &mut Outcome,
) -> Round {
    let mut order: Vec<usize> = plan
        .slots
        .iter()
        .enumerate()
        .flat_map(|(i, s)| std::iter::repeat_n(i, s.reps))
        .collect();
    ctx.rng.shuffle(&mut order);

    let mut round = Round::default();
    let mut per_slot: Vec<Vec<f64>> = vec![Vec::new(); plan.slots.len()];
    let start = Instant::now();
    for slot in order {
        let r = &ready[slot];
        let op = ctx.next_op;
        ctx.next_op += 1;
        out.attempted += 1;
        match r.built.realize(rec, op, &r.input, plan.threads) {
            Ok((realization, latency)) => {
                let (same, _) = rec.span("oracle.check", op, || {
                    oracle::checksum(&realization.output) == ctx.first_sums[slot]
                });
                if !same {
                    out.failed += 1;
                    out.fail(format!(
                        "{}: output differs from repetition 1",
                        r.built.app.slug()
                    ));
                    continue;
                }
                let ms = latency.as_secs_f64() * 1e3;
                round.latencies_ms.push(ms);
                per_slot[slot].push(ms);
                round
                    .overhead_us
                    .push(latency.saturating_sub(realization.wall_time).as_secs_f64() * 1e6);
            }
            Err(e) => {
                out.failed += 1;
                out.fail(e);
            }
        }
    }
    round.wall = start.elapsed();
    round.per_slot_ms = per_slot
        .iter()
        .map(|v| v.iter().sum::<f64>() / v.len() as f64)
        .collect();
    round
}

/// What set-up and rounds both mutate.
struct Ctx {
    samples: EndToEndSamples,
    rng: Rng,
    next_op: u64,
    /// Checksum of each slot's first output in the first segment: what every
    /// later output of that slot — every timed repetition, and the first
    /// output of every later segment's rebuilt program — must reproduce.
    first_sums: Vec<u64>,
}

/// Runs the workload.
///
/// # Errors
///
/// A program failed to build, or its first realization failed.
pub fn run(cfg: &RunConfig, flavour: Flavour) -> Result<Outcome, String> {
    let plan = plan(cfg, flavour);
    let rec = Recorder::new();
    let mut out = Outcome::default();
    let mut ctx = Ctx {
        samples: EndToEndSamples::default(),
        rng: Rng::new(cfg.seed, 1),
        next_op: 1000,
        first_sums: Vec::new(),
    };
    let timed = run_segments(
        cfg,
        &rec,
        &mut out,
        &mut ctx,
        |ctx, segment, out| {
            let (ready, wall) = set_up(&plan, &rec)?;
            ctx.samples.setup_s.push(wall.as_secs_f64());
            let build: Duration = ready.iter().map(|r| r.built.phases.total()).sum();
            ctx.samples.compile_ms.push(build.as_secs_f64() * 1e3);
            check_parallel_tasks(&plan, &ready, out);
            let sums = ready.iter().map(|r| oracle::checksum(&r.first_output));
            if segment == 0 {
                check_first_outputs(&plan, &ready, &rec, out);
                ctx.first_sums = sums.collect();
            } else {
                for ((r, sum), first) in ready.iter().zip(sums).zip(&ctx.first_sums) {
                    if sum != *first {
                        out.fail(format!(
                            "{}: segment {segment}'s build gives other pixels than segment 0's",
                            r.built.app.slug()
                        ));
                    }
                }
            }
            Ok(ready)
        },
        |ctx, ready, _, out| run_round(&plan, ready, &rec, ctx, out),
    )?;
    let mut samples = ctx.samples;
    out.exact_counts.insert(
        "ops_per_round".into(),
        plan.slots.iter().map(|s| s.reps).sum::<usize>() as f64,
    );

    if cfg.trace {
        let layers = per_layer(cfg, flavour, &plan, &timed, &ctx.first_sums, &rec, &mut out);
        out.set_per_layer(layers);
        out.spans = rec.spans();
        return Ok(out);
    }

    for round in &timed.rounds {
        let round = &round.result;
        let rates: Vec<f64> = timed
            .setup
            .iter()
            .zip(&round.per_slot_ms)
            .filter(|(_, ms)| ms.is_finite())
            .map(|(r, ms)| r.built.pixels() / 1e6 / (ms / 1e3))
            .collect();
        samples.mpix_per_s.push(geomean(&rates));
        samples.push_round(&round.latencies_ms, round.wall.as_secs_f64());
    }
    out.set_end_to_end(&samples);
    Ok(out)
}

/// The traced pass's extra measurements. The instrumented-counter pass and
/// the profiler pass are separate realizations so neither pollutes the
/// other's (or the timed rounds') times.
fn per_layer(
    cfg: &RunConfig,
    flavour: Flavour,
    plan: &Plan,
    timed: &Timed<Vec<Ready>, Round>,
    first_sums: &[u64],
    rec: &Recorder,
    out: &mut Outcome,
) -> BTreeMap<String, f64> {
    let (ready, rounds) = (&timed.setup, &timed.rounds);
    let built: Vec<&Built> = ready.iter().map(|r| &r.built).collect();
    let phases: Vec<PhaseTimes> = built.iter().map(|b| b.phases).collect();
    let mut m = programs::layer_metrics(&built, &phases);
    out.exact_counts.extend(programs::exact_counts(&m));

    let mut realize_ms = Vec::new();
    let mut instrument_ratio = Vec::new();
    let mut profile_ratio = Vec::new();
    let mut attributed = Vec::new();
    for (i, r) in ready.iter().enumerate() {
        let slug = r.built.app.slug();
        let pixels = r.built.pixels();
        let extents = r.built.app.output_extents(r.built.size.0, r.built.size.1);
        let ms = median(
            &rounds
                .iter()
                .map(|round| round.result.per_slot_ms[i])
                .filter(|v| v.is_finite())
                .collect::<Vec<_>>(),
        );
        realize_ms.push(ms);
        m.insert(format!("exec.realize_ms.{slug}"), ms);
        m.insert(format!("exec.ns_per_pixel.{slug}"), ms * 1e6 / pixels);

        // Instrumented pass: exact op counts and the access-pattern split.
        let counted = r
            .built
            .realizer(&r.input, plan.threads)
            .instrument(true)
            .realize(&extents);
        match counted {
            Ok(c) => {
                let k = &c.counters;
                let ops = (k.arith_ops + k.loads + k.stores) as f64;
                let patterned = (k.dense_loads + k.strided_loads + k.gather_loads) as f64;
                m.insert(format!("exec.ops_per_pixel.{slug}"), ops / pixels);
                m.insert(format!("exec.ns_per_op.{slug}"), ms * 1e6 / ops);
                m.insert(
                    format!("exec.dense_load_share.{slug}"),
                    k.dense_loads as f64 / patterned,
                );
                m.insert(
                    format!("runtime.peak_bytes_live.{slug}"),
                    k.peak_bytes_live as f64,
                );
                m.insert(format!("runtime.allocations.{slug}"), k.allocations as f64);
                m.insert(
                    format!("runtime.parallel_tasks.{slug}"),
                    k.parallel_tasks as f64,
                );
                out.exact_counts.insert(format!("exec.ops.{slug}"), ops);
                instrument_ratio.push(c.wall_time.as_secs_f64() * 1e3 / ms);
                if oracle::checksum(&c.output) != first_sums[i] {
                    out.fail(format!(
                        "{slug}: instrumented output differs from repetition 1"
                    ));
                }
            }
            Err(e) => out.fail(format!("{slug}: instrumented realize failed: {e}")),
        }

        // Profiler pass: how concentrated run time is, and what the sampler costs.
        let profiled = r.built.realizer(&r.input, plan.threads).profile(true);
        let walls: Vec<f64> = (0..2)
            .filter_map(|_| profiled.realize(&extents).ok())
            .map(|p| p.wall_time.as_secs_f64() * 1e3)
            .collect();
        if let Some(report) = profiled.profile_report().filter(|_| walls.len() == 2) {
            m.insert(
                format!("exec.top_func_share.{slug}"),
                report.top(1).first().map_or(0.0, |f| f.time_frac),
            );
            attributed.push(report.attributed_frac());
            profile_ratio.push(median(&walls) / ms);
        } else {
            out.fail(format!("{slug}: profiled realize failed"));
        }
    }

    let overheads: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.result.overhead_us.iter().copied())
        .collect();
    m.insert("exec.realize_overhead_us".into(), median(&overheads));
    m.insert(
        "trace.instrument_overhead_ratio".into(),
        geomean(&instrument_ratio),
    );
    m.insert(
        "trace.profile_overhead_ratio".into(),
        geomean(&profile_ratio),
    );
    m.insert(
        "trace.profile_attributed_share".into(),
        attributed.iter().sum::<f64>() / attributed.len() as f64,
    );
    m.insert(
        "trace.overhead_ratio".into(),
        timed.overhead_ratio(|r| r.wall.as_secs_f64()),
    );
    m.insert("trace.span_coverage".into(), timed.span_coverage(rec, 1));

    yardstick(plan, ready, &realize_ms, &mut m);

    // Thread-pool scaling probe: the same program on one thread and on every
    // CPU, back to back. Skipped (reads 0), never faked, on a 1-core box.
    let probe = env::probe_threads();
    if flavour == Flavour::Tuned && probe > 1 {
        let quiet = Recorder::new();
        let median_ms = |r: &Ready, threads: usize| {
            let runs = (0..3).filter_map(|_| r.built.realize(&quiet, 0, &r.input, threads).ok());
            median(&runs.map(|(_, d)| d.as_secs_f64() * 1e3).collect::<Vec<_>>())
        };
        let speedups: Vec<f64> = ready
            .iter()
            .filter(|r| matches!(r.built.app, AppKind::Blur | AppKind::CameraPipe))
            .map(|r| median_ms(r, 1) / median_ms(r, probe))
            .collect();
        m.insert("runtime.parallel_speedup".into(), geomean(&speedups));
    }

    // Design invariant: the tuned schedules exist to reach the vector paths.
    if flavour == Flavour::Tuned && !cfg.smoke {
        for r in ready {
            let slug = r.built.app.slug();
            let dense = m.get(&format!("exec.dense_load_share.{slug}"));
            if dense.is_none_or(|v| *v <= 0.0) {
                out.fail(format!("design invariant: tuned {slug} made no dense load"));
            }
        }
    }
    m
}

/// The fixed yardstick: hand-written Rust at the timed size, and how many
/// times slower the engine is.
fn yardstick(plan: &Plan, ready: &[Ready], realize_ms: &[f64], m: &mut BTreeMap<String, f64>) {
    for (i, r) in ready.iter().enumerate() {
        let reference: Option<Box<dyn Fn() -> Buffer + '_>> = match r.built.app {
            AppKind::Blur => Some(Box::new(|| {
                blur::reference_optimized(&r.input, plan.threads)
            })),
            AppKind::Histogram => Some(Box::new(|| histogram::reference(&r.input))),
            _ => None,
        };
        if let Some(reference) = reference {
            let times: Vec<f64> = (0..3)
                .map(|_| {
                    let t = Instant::now();
                    std::hint::black_box(reference());
                    t.elapsed().as_secs_f64() * 1e3
                })
                .collect();
            let slug = r.built.app.slug();
            m.insert(format!("pipelines.ref_ms.{slug}"), median(&times));
            m.insert(
                format!("exec.x_over_ref.{slug}"),
                realize_ms[i] / median(&times),
            );
        }
    }
}

/// Design invariant, checked on every set-up of either pass: no parallel
/// task on `realize_naive`, some for every app on `realize_tuned`. A workload
/// that stops stressing the layer it exists for has failed.
fn check_parallel_tasks(plan: &Plan, ready: &[Ready], out: &mut Outcome) {
    for r in ready {
        let serial = plan.schedule == ScheduleChoice::Naive;
        if serial != (r.parallel_tasks == 0) {
            out.fail(format!(
                "design invariant: {} ran {} parallel tasks under the {:?} schedule",
                r.built.app.slug(),
                r.parallel_tasks,
                plan.schedule
            ));
        }
    }
}
