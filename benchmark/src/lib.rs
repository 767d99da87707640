//! The repository benchmark (see `README.md` beside this crate and
//! `BENCHMARK.json` at the repository root): five workloads, seven bounded
//! end-to-end metrics plus the failure count, and per-crate layer metrics —
//! every one measured from outside, by timing calls into the crates' public
//! functions. Nothing under `crates/` knows this package exists.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod compile;
pub mod env;
pub mod json;
pub mod oracle;
pub mod programs;
pub mod realize;
pub mod report;
pub mod rng;
pub mod serve;
pub mod spans;
pub mod spec;
pub mod stats;

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;
use crate::spans::{Recorder, Span};
use crate::stats::Series;

/// One run of one workload.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Workload name (one of [`spec::WORKLOADS`]).
    pub workload: String,
    /// Drives app order, the request order and the key order — never the
    /// amount of work.
    pub seed: u64,
    /// Length of the timed section: rounds repeat until it has elapsed.
    pub seconds: f64,
    /// The traced pass (per-layer metrics) instead of the end-to-end pass.
    pub trace: bool,
    /// [`oracle::ORACLE_SIZE`] images, one segment of one round: seconds in
    /// total, for tests.
    pub smoke: bool,
}

impl RunConfig {
    /// How many segments a run has. Each segment is one full set-up followed
    /// by its share of the timed rounds, so the set-ups behind `setup_s` are
    /// spread over the whole run — two to each of the thirds a
    /// [`stats::Series`] is cut into — and the timed rounds come from six
    /// independently built sets of programs or servers. The traced pass
    /// reports no end-to-end value and has one segment.
    pub fn segments(&self) -> usize {
        if self.smoke || self.trace {
            1
        } else {
            6
        }
    }
}

/// Decides when a segment's timed rounds have run long enough.
#[derive(Debug)]
struct Budget {
    started: Instant,
    seconds: f64,
    min_rounds: usize,
}

impl Budget {
    /// The budget of one segment: its share of `--seconds` (two thirds of
    /// it in the traced pass, which spends the rest on the counter and
    /// profiler passes), at least two rounds (four when traced, so both
    /// recorder states get two). A smoke run has no budget and one round.
    fn for_segment(cfg: &RunConfig) -> Budget {
        let (seconds, min_rounds) = match (cfg.smoke, cfg.trace) {
            (true, _) => (0.0, 1),
            (false, true) => (cfg.seconds * 2.0 / 3.0, 4),
            (false, false) => (cfg.seconds, 2),
        };
        Budget {
            started: Instant::now(),
            seconds: seconds / cfg.segments() as f64,
            min_rounds,
        }
    }

    /// True while another round should run, given `done` complete: until the
    /// rounds' total is as close to the budget as whole rounds get (another
    /// round runs if, at the pace so far, at least half of it fits).
    fn more(&self, done: usize) -> bool {
        let with_half_a_round_more =
            self.started.elapsed().as_secs_f64() * (done as f64 + 0.5) / done as f64;
        done < self.min_rounds || with_half_a_round_more < self.seconds
    }
}

/// One timed round.
pub struct TimedRound<R> {
    /// Whether the span recorder was on for it.
    pub recorded: bool,
    /// What the workload's round callback returned.
    pub result: R,
}

/// What the timed section of a run produced.
pub struct Timed<S, R> {
    /// The last segment's set-up (the traced pass measures more on it).
    pub setup: S,
    /// Every timed round, in the order they ran.
    pub rounds: Vec<TimedRound<R>>,
    /// Recorder-clock windows of the rounds that ran with the recorder on.
    pub on_windows: Vec<(u64, u64)>,
}

impl<S, R> Timed<S, R> {
    /// `trace.overhead_ratio`: median wall of the rounds recorded with spans
    /// on ÷ median wall of those with spans off (1 when there is nothing to
    /// compare, as in a one-round smoke run).
    pub fn overhead_ratio(&self, wall_s: impl Fn(&R) -> f64) -> f64 {
        let walls = |want_on: bool| -> Vec<f64> {
            let of_state = self.rounds.iter().filter(|r| r.recorded == want_on);
            of_state.map(|r| wall_s(&r.result)).collect()
        };
        let (on, off) = (walls(true), walls(false));
        if on.is_empty() || off.is_empty() {
            return 1.0;
        }
        stats::median(&on) / stats::median(&off)
    }

    /// `trace.span_coverage`: the share of the recorded rounds' wall clock
    /// covered by root spans (which is what the self times sum to), for
    /// `lanes` concurrently recording threads.
    pub fn span_coverage(&self, rec: &Recorder, lanes: usize) -> f64 {
        let window_ns: u64 = self.on_windows.iter().map(|(a, b)| b - a).sum();
        let inside = |s: &Span| {
            let mut windows = self.on_windows.iter();
            windows.any(|(a, b)| s.start_ns >= *a && s.end_ns <= *b)
        };
        let covered: u64 = rec
            .spans()
            .iter()
            .filter(|s| s.parent.is_none() && inside(s))
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        covered as f64 / (window_ns as f64 * lanes as f64)
    }
}

/// The shape every workload's run has: [`RunConfig::segments`] segments, each
/// one `set_up` followed by `round`s until the segment's [`Budget`] is spent.
/// The traced pass alternates rounds with the recorder off and on inside one
/// process, so `trace.overhead_ratio` compares like with like. `ctx` is the
/// state both callbacks mutate (samples, the generator, operation ids).
///
/// # Errors
///
/// `set_up` failed; nothing further is measured.
pub fn run_segments<C, S, R>(
    cfg: &RunConfig,
    rec: &Recorder,
    out: &mut Outcome,
    ctx: &mut C,
    mut set_up: impl FnMut(&mut C, usize, &mut Outcome) -> Result<S, String>,
    mut round: impl FnMut(&mut C, &S, usize, &mut Outcome) -> R,
) -> Result<Timed<S, R>, String> {
    let mut rounds = Vec::new();
    let mut on_windows = Vec::new();
    let mut last = None;
    for segment in 0..cfg.segments() {
        rec.set_on(cfg.trace);
        let setup = set_up(ctx, segment, out)?;
        let budget = Budget::for_segment(cfg);
        let timed = Instant::now();
        let mut done = 0;
        while budget.more(done) {
            let on = cfg.trace && (done % 2 == 1 || cfg.smoke);
            rec.set_on(on);
            let window_start = rec.now_ns();
            let result = round(ctx, &setup, rounds.len(), out);
            if on {
                on_windows.push((window_start, rec.now_ns()));
            }
            rounds.push(TimedRound {
                recorded: on,
                result,
            });
            out.round_done(rounds.len());
            done += 1;
        }
        out.timed_s += timed.elapsed().as_secs_f64();
        last = Some(setup);
    }
    out.rounds = rounds.len();
    Ok(Timed {
        setup: last.expect("a run has at least one segment"),
        rounds,
        on_windows,
    })
}

/// Samples of the end-to-end metrics that are sampled (`peak_rss_mb` is read
/// once); each reported value is the [`Series::value`] of its samples.
#[derive(Debug, Default)]
pub struct EndToEndSamples {
    /// Seconds per set-up: one sample per segment.
    pub setup_s: Series,
    /// Output megapixels per second, per round.
    pub mpix_per_s: Series,
    /// Milliseconds to build the workload's program set once: per round
    /// where compiling is the timed work, per set-up elsewhere.
    pub compile_ms: Series,
    /// Successful operations per second, per round.
    pub throughput_rps: Series,
    /// Per-round median operation latency, ms.
    pub latency_p50_ms: Series,
    /// Per-round 95th-percentile operation latency, ms.
    pub latency_p95_ms: Series,
}

impl EndToEndSamples {
    /// Adds one round's throughput and latency percentiles, from the
    /// latencies of its successful operations and its wall time.
    pub fn push_round(&mut self, latencies_ms: &[f64], wall_s: f64) {
        self.throughput_rps.push(latencies_ms.len() as f64 / wall_s);
        self.latency_p50_ms
            .push(stats::percentile(latencies_ms, 0.5));
        self.latency_p95_ms
            .push(stats::percentile(latencies_ms, 0.95));
    }
}

/// The timed round after which `peak_rss_mb` is read.
pub const RSS_MARK_ROUND: usize = 2;

/// What one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the timed section.
    pub attempted: u64,
    /// Operations that errored, were refused, or produced a wrong output.
    pub failed: u64,
    /// What went wrong (first few messages): failed operations and oracle
    /// mismatches found outside the timed section. Any entry makes the run
    /// incorrect.
    pub failures: Vec<String>,
    /// Exactly the end-to-end names (untraced) or per-layer names (traced).
    pub metrics: BTreeMap<String, f64>,
    /// [`Series::spread`] of the samples behind each end-to-end value
    /// (`peak_rss_mb` is a single reading and has none).
    pub spreads: BTreeMap<String, f64>,
    /// The samples behind each end-to-end value.
    pub samples: BTreeMap<String, Series>,
    /// Counts that must repeat exactly between two runs of one commit.
    pub exact_counts: BTreeMap<String, f64>,
    /// `VmHWM` when round [`RSS_MARK_ROUND`] ended (see [`Outcome::round_done`]).
    pub rss_mb_at_mark: Option<f64>,
    /// Timed rounds completed.
    pub rounds: usize,
    /// Wall time of the timed section.
    pub timed_s: f64,
    /// Spans of the traced pass.
    pub spans: Vec<Span>,
}

impl Outcome {
    /// True when every output matched its oracle and no operation failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty()
    }

    /// Call after each timed round with the number completed so far.
    /// `peak_rss_mb` is read when the second round ends (one set-up and two
    /// rounds: the work every run does first), not when the run ends: how
    /// many rounds fit into `--seconds` depends on the machine's mood, and
    /// a process that compiles keeps every Func it ever defined (the `lang`
    /// registry), so the high-water mark at exit tracks the round count.
    pub fn round_done(&mut self, done: usize) {
        if done == RSS_MARK_ROUND {
            self.rss_mb_at_mark = Some(env::peak_rss_mb());
        }
    }

    /// Records a failure message (keeping the list short).
    pub fn fail(&mut self, msg: String) {
        if self.failures.len() < 8 {
            self.failures.push(msg);
        }
    }

    /// Fills `metrics` and `spreads` from the samples, adding `peak_rss_mb`.
    pub fn set_end_to_end(&mut self, s: &EndToEndSamples) {
        for (name, samples) in [
            ("setup_s", &s.setup_s),
            ("mpix_per_s", &s.mpix_per_s),
            ("compile_ms", &s.compile_ms),
            ("throughput_rps", &s.throughput_rps),
            ("latency_p50_ms", &s.latency_p50_ms),
            ("latency_p95_ms", &s.latency_p95_ms),
        ] {
            let higher = spec::END_TO_END
                .iter()
                .any(|m| m.name == name && m.better == "higher");
            self.metrics.insert(name.into(), samples.value(higher));
            self.spreads.insert(name.into(), samples.spread(higher));
            self.samples.insert(name.into(), samples.clone());
        }
        let rss = self.rss_mb_at_mark.unwrap_or_else(env::peak_rss_mb);
        self.metrics.insert("peak_rss_mb".into(), rss);
    }

    /// Fills `metrics` with every per-layer name: the measured ones from
    /// `measured`, 0 for layers this workload does not exercise.
    pub fn set_per_layer(&mut self, measured: BTreeMap<String, f64>) {
        let names: Vec<String> = spec::per_layer().into_iter().map(|l| l.name).collect();
        for name in measured.keys() {
            assert!(
                names.contains(name),
                "{name} is not a declared per-layer metric"
            );
        }
        for name in names {
            let v = measured.get(&name).copied().unwrap_or(0.0);
            self.metrics
                .insert(name, if v.is_finite() { v } else { 0.0 });
        }
    }

    /// The driver's result line: exactly `correct`, `attempted`, `failed`
    /// and `metrics`.
    pub fn result_line(&self, trace: bool) -> Json {
        let unit_of: BTreeMap<String, &'static str> = spec::units(trace).into_iter().collect();
        let metrics = self.metrics.iter().map(|(name, value)| {
            let unit = unit_of.get(name).copied().unwrap_or("");
            (
                name.clone(),
                Json::obj([("value", Json::Num(*value)), ("unit", Json::str(unit))]),
            )
        });
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
    }
}

/// Runs one workload.
///
/// # Errors
///
/// The workload name is unknown, or set-up itself failed (a program that
/// does not lower or compile) so nothing could be measured.
pub fn run_workload(cfg: &RunConfig) -> Result<Outcome, String> {
    match cfg.workload.as_str() {
        "realize_tuned" => realize::run(cfg, realize::Flavour::Tuned),
        "realize_naive" => realize::run(cfg, realize::Flavour::Naive),
        "compile_cold" => compile::run(cfg),
        "serve_warm" => serve::run(cfg, serve::Flavour::Warm),
        "serve_churn" => serve::run(cfg, serve::Flavour::Churn),
        other => Err(format!(
            "unknown workload {other:?}; expected one of {:?}",
            spec::WORKLOADS.map(|(name, _)| name)
        )),
    }
}
