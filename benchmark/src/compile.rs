//! `compile_cold`: sweeps of construct → schedule → lower → compile over
//! every app × {naive, tuned}, nothing cached between sweeps. `lower` and
//! the PIR optimizer do all the timed work; the machine runs only the small
//! oracle realizations after each sweep, whose speed is this workload's
//! `mpix_per_s`: an optimization that buys run time usually costs compile
//! time, and the sheet for compilers says to report both.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use halide_pipelines::{AppKind, ScheduleChoice};
use halide_runtime::Buffer;

use crate::oracle::{self, ORACLE_SIZE};
use crate::programs::{self, Built, PhaseTimes};
use crate::rng::Rng;
use crate::spans::Recorder;
use crate::stats::{geomean, median};
use crate::{run_segments, EndToEndSamples, Outcome, RunConfig, Timed};

/// The 12 programs of one sweep.
fn programs() -> Vec<(AppKind, ScheduleChoice)> {
    AppKind::ALL
        .into_iter()
        .flat_map(|app| [(app, ScheduleChoice::Naive), (app, ScheduleChoice::Tuned)])
        .collect()
}

/// What must be identical every time one program is compiled: the compiler
/// is deterministic, so a sweep that disagrees with the first has failed.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Signature {
    funcs: usize,
    insts_before: usize,
    insts_after: usize,
}

impl Signature {
    fn of(b: &Built) -> Signature {
        Signature {
            funcs: b.funcs,
            insts_before: b.opt_report().before_insts,
            insts_after: b.opt_report().after_insts,
        }
    }
}

/// One sweep's timings, indexed like [`programs`].
struct Sweep {
    wall: Duration,
    phases: Vec<Option<PhaseTimes>>,
    latencies_ms: Vec<f64>,
    /// Speed of the oracle realizations that followed the sweep.
    oracle_mpix_per_s: f64,
}

/// What set-up and sweeps both mutate.
struct Ctx {
    samples: EndToEndSamples,
    rng: Rng,
    next_op: u64,
    /// Each program's signature in the first sweep that built it.
    expected: Vec<Option<Signature>>,
    /// The latest sweep's programs. Only the latest: peak memory is one
    /// sweep's worth, as it would be for a user compiling once.
    latest: Vec<Option<Built>>,
}

/// Builds every program once, in an order drawn from the generator. Timed
/// sweeps are `counted` into `attempted`/`failed`; the warm-up sweep is not.
fn sweep(
    size: (i64, i64),
    rec: &Recorder,
    ctx: &mut Ctx,
    out: &mut Outcome,
    counted: bool,
) -> Sweep {
    let programs = programs();
    let mut order: Vec<usize> = (0..programs.len()).collect();
    ctx.rng.shuffle(&mut order);
    let mut built: Vec<Option<Built>> = programs.iter().map(|_| None).collect();
    let mut phases = vec![None; programs.len()];
    let mut latencies_ms = Vec::new();
    let start = Instant::now();
    for i in order {
        let (app, schedule) = programs[i];
        let op = ctx.next_op;
        ctx.next_op += 1;
        if counted {
            out.attempted += 1;
        }
        let t = Instant::now();
        let result = programs::build(rec, op, app, schedule, size.0, size.1);
        let latency = t.elapsed();
        let verdict = result.and_then(|b| {
            let sig = Signature::of(&b);
            match &ctx.expected[i] {
                Some(first) if *first != sig => Err(format!(
                    "{} {schedule:?}: compiled to {sig:?}, first sweep gave {first:?}",
                    app.slug()
                )),
                _ => {
                    ctx.expected[i] = Some(sig);
                    Ok(b)
                }
            }
        });
        match verdict {
            Ok(b) => {
                latencies_ms.push(latency.as_secs_f64() * 1e3);
                phases[i] = Some(b.phases);
                built[i] = Some(b);
            }
            Err(e) => {
                if counted {
                    out.failed += 1;
                }
                out.fail(e);
            }
        }
    }
    let wall = start.elapsed();
    ctx.latest = built;
    Sweep {
        wall,
        phases,
        latencies_ms,
        oracle_mpix_per_s: f64::NAN,
    }
}

/// Every program of a sweep built at [`ORACLE_SIZE`], with the interpreter's
/// output for its app: what `compile_cold` realizes to check that the
/// compiler's output is right, and to report how fast it runs.
struct OraclePrograms {
    programs: Vec<(Built, Arc<Buffer>, Arc<Buffer>)>,
}

impl OraclePrograms {
    fn build(out: &mut Outcome) -> OraclePrograms {
        let (w, h) = ORACLE_SIZE;
        let quiet = Recorder::new();
        let mut programs = Vec::new();
        for app in AppKind::ALL {
            let expected = match oracle::interpreter_reference(app, w, h) {
                Ok(e) => Arc::new(e),
                Err(e) => {
                    out.fail(e);
                    continue;
                }
            };
            let input = Arc::new(app.make_input(w, h));
            for schedule in [ScheduleChoice::Naive, ScheduleChoice::Tuned] {
                match programs::build(&quiet, 0, app, schedule, w, h) {
                    Ok(b) => programs.push((b, Arc::clone(&input), Arc::clone(&expected))),
                    Err(e) => out.fail(e),
                }
            }
        }
        OraclePrograms { programs }
    }

    /// Realizes every program once on one thread, checks each output against
    /// the interpreter, and returns the geometric mean of output Mpix/s.
    fn realize_all(&self, rec: &Recorder, out: &mut Outcome) -> f64 {
        let mut rates = Vec::new();
        for (built, input, expected) in &self.programs {
            match built.realize(rec, 0, input, 1) {
                Ok((r, latency)) => {
                    rates.push(built.pixels() / 1e6 / latency.as_secs_f64());
                    let (verdict, _) =
                        rec.span("oracle.check", 0, || oracle::check(&r.output, expected));
                    if let Err(e) = verdict {
                        out.fail(format!(
                            "{} {:?} vs interpreter: {e}",
                            built.app.slug(),
                            built.schedule
                        ));
                    }
                }
                Err(e) => out.fail(e),
            }
        }
        geomean(&rates)
    }
}

/// Runs the workload.
///
/// # Errors
///
/// Never: a program that fails to build is a failed operation, not a failed
/// run. (The signature matches the other workloads'.)
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let size = if cfg.smoke { ORACLE_SIZE } else { (512, 384) };
    let rec = Recorder::new();
    let mut out = Outcome::default();
    let mut ctx = Ctx {
        samples: EndToEndSamples::default(),
        rng: Rng::new(cfg.seed, 2),
        next_op: 1,
        expected: programs().iter().map(|_| None).collect(),
        latest: Vec::new(),
    };

    let small = OraclePrograms::build(&mut out);
    let timed = run_segments(
        cfg,
        &rec,
        &mut out,
        &mut ctx,
        |ctx, _, out| {
            // Set-up is a warm-up sweep: it fills the Func-name registry and
            // the allocator the way a long-lived compiler process would have.
            let warm = sweep(size, &rec, ctx, out, false);
            ctx.samples.setup_s.push(warm.wall.as_secs_f64());
            Ok(())
        },
        |ctx, (), _, out| {
            let mut timed = sweep(size, &rec, ctx, out, true);
            timed.oracle_mpix_per_s = small.realize_all(&rec, out);
            timed
        },
    )?;
    let mut samples = std::mem::take(&mut ctx.samples);
    out.exact_counts
        .insert("ops_per_round".into(), programs().len() as f64);
    // Design invariant, checked on every run of either pass: this workload
    // exists to stress `lower`.
    let sweeps = timed.rounds.iter();
    let (lower, total) = sweeps
        .flat_map(|r| r.result.phases.iter().flatten())
        .fold((Duration::ZERO, Duration::ZERO), |(l, t), p| {
            (l + p.lower, t + p.total())
        });
    if !cfg.smoke && lower.as_secs_f64() < 0.70 * total.as_secs_f64() {
        out.fail(format!(
            "design invariant: lower took {lower:?} of {total:?} building, not >= 70%"
        ));
    }

    if cfg.trace {
        let layers = per_layer(&timed, &ctx.latest, &rec, &mut out);
        out.set_per_layer(layers);
        out.spans = rec.spans();
        return Ok(out);
    }

    for round in &timed.rounds {
        let s = &round.result;
        samples.compile_ms.push(s.latencies_ms.iter().sum());
        samples.mpix_per_s.push(s.oracle_mpix_per_s);
        samples.push_round(&s.latencies_ms, s.wall.as_secs_f64());
    }
    out.set_end_to_end(&samples);
    Ok(out)
}

fn per_layer(
    timed: &Timed<(), Sweep>,
    latest: &[Option<Built>],
    rec: &Recorder,
    out: &mut Outcome,
) -> BTreeMap<String, f64> {
    // Phase times are per-program medians over sweeps; the structural counts
    // come from the last sweep (every sweep's are equal, or it failed).
    let kept: Vec<(usize, &Built)> = latest
        .iter()
        .enumerate()
        .filter_map(|(i, b)| b.as_ref().map(|b| (i, b)))
        .collect();
    let phases: Vec<PhaseTimes> = kept
        .iter()
        .map(|(i, _)| {
            let sweeps = timed.rounds.iter();
            let history: Vec<PhaseTimes> = sweeps.filter_map(|s| s.result.phases[*i]).collect();
            let med = |f: fn(&PhaseTimes) -> Duration| {
                Duration::from_secs_f64(median(
                    &history
                        .iter()
                        .map(|p| f(p).as_secs_f64())
                        .collect::<Vec<_>>(),
                ))
            };
            PhaseTimes {
                lang: med(|p| p.lang),
                schedule: med(|p| p.schedule),
                lower: med(|p| p.lower),
                compile: med(|p| p.compile),
            }
        })
        .collect();
    let built: Vec<&Built> = kept.iter().map(|(_, b)| *b).collect();
    let mut m = programs::layer_metrics(&built, &phases);
    out.exact_counts.extend(programs::exact_counts(&m));
    m.insert(
        "trace.overhead_ratio".into(),
        timed.overhead_ratio(|s| s.wall.as_secs_f64()),
    );
    m.insert("trace.span_coverage".into(), timed.span_coverage(rec, 1));

    m
}
