//! # halide-bench
//!
//! Harnesses that regenerate every table and figure of the paper's
//! evaluation (Sec. 6). The `repro` binary prints one table per
//! subcommand (`fig3 fig6 fig7 fig8 sec31 sec5 sec61 ablation`),
//! each a [`Table`] built by a function in this crate; `bench_exec` and
//! `bench_serve` regenerate the `BENCH_*.json` artifacts and hold the CI
//! perf gates.
//!
//! All three binaries share one strict command line ([`Args`]): `--quick`
//! (default: small images, short searches) or `--full` (paper-scale sizes),
//! `--threads N`, `--backend NAME`. Unknown flags and unparsable values are
//! errors, never silently ignored.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::time::Duration;

use halide_autotune::{apply_genome, search_space_log10, Autotuner, TuneOptions};
use halide_exec::{Backend, Realization, Realizer};
use halide_lang::analyze;
use halide_lower::{lower, lower_with_options, LowerOptions, Module};
use halide_pipelines::bilateral_grid::BilateralGridApp;
use halide_pipelines::blur::{BlurApp, BlurSchedule};
use halide_pipelines::camera_pipe::CameraPipeApp;
use halide_pipelines::interpolate::InterpolateApp;
use halide_pipelines::local_laplacian::LocalLaplacianApp;
use halide_pipelines::{apps::ScheduleChoice, AppKind};
use halide_runtime::Buffer;

/// Harness configuration derived from the command line.
#[derive(Debug, Clone, Copy)]
pub struct HarnessConfig {
    /// Image width used for the main experiments.
    pub width: i64,
    /// Image height used for the main experiments.
    pub height: i64,
    /// Worker threads.
    pub threads: usize,
    /// Autotuner generations (where applicable).
    pub generations: usize,
    /// Autotuner population (where applicable).
    pub population: usize,
    /// Execution engine every harness runs pipelines on
    /// (`--backend compiled|interp`, default compiled).
    pub backend: Backend,
}

/// What one binary accepts on its command line beyond the shared
/// `--quick | --full`, `--threads N` and `--backend NAME`.
#[derive(Debug, Clone, Copy)]
pub struct CliSpec {
    /// The usage line printed (after the error) when parsing fails.
    pub usage: &'static str,
    /// Subcommand names; empty when the binary takes no positional
    /// argument, otherwise exactly one of these is required.
    pub subcommands: &'static [&'static str],
    /// Flags that take no value, e.g. `--12mp`.
    pub switches: &'static [&'static str],
    /// Flags that take one value, e.g. `--out`.
    pub valued: &'static [&'static str],
}

/// A parsed command line (see [`CliSpec`]).
#[derive(Debug, Clone)]
pub struct Args {
    config: HarnessConfig,
    full: bool,
    subcommand: Option<String>,
    /// Spec-declared flags in command-line order (a switch's value is empty).
    flags: Vec<(String, String)>,
}

impl Args {
    /// Parses the process arguments against `spec`; on any error prints
    /// the message and the usage line to stderr and exits with status 2.
    pub fn from_env(spec: &CliSpec) -> Args {
        Args::parse(std::env::args().skip(1), spec).unwrap_or_else(|msg| {
            eprintln!("error: {msg}\nusage: {}", spec.usage);
            std::process::exit(2)
        })
    }

    /// Parses `argv` (without the program name) against `spec`.
    ///
    /// # Errors
    ///
    /// A message naming the offending argument: an unknown flag, a flag
    /// missing its value, a value that does not parse, both `--quick` and
    /// `--full`, or a missing / unknown / unexpected subcommand.
    pub fn parse(argv: impl IntoIterator<Item = String>, spec: &CliSpec) -> Result<Args, String> {
        let mut tier: Option<String> = None;
        let mut threads = halide_runtime::num_threads_default();
        let mut backend = Backend::default();
        let mut subcommand = None;
        let mut flags = Vec::new();
        let mut it = argv.into_iter();
        while let Some(arg) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
            match arg.as_str() {
                "--quick" | "--full" => {
                    if tier.as_ref().is_some_and(|t| *t != arg) {
                        return Err("--quick and --full are mutually exclusive".into());
                    }
                    tier = Some(arg);
                }
                "--threads" => {
                    let v = value()?;
                    threads = match v.parse() {
                        Ok(n) if n > 0 => n,
                        _ => return Err(format!("--threads {v:?} is not a positive integer")),
                    };
                }
                "--backend" => {
                    let v = value()?;
                    backend = Backend::from_name(&v).ok_or_else(|| {
                        format!("--backend {v:?} is unknown; use compiled or interp")
                    })?;
                }
                flag if spec.switches.contains(&flag) => flags.push((arg, String::new())),
                flag if spec.valued.contains(&flag) => {
                    let v = value()?;
                    flags.push((arg, v));
                }
                flag if flag.starts_with('-') => return Err(format!("unknown flag {flag:?}")),
                name if spec.subcommands.contains(&name) && subcommand.is_none() => {
                    subcommand = Some(arg);
                }
                other => return Err(format!("unexpected argument {other:?}")),
            }
        }
        if subcommand.is_none() && !spec.subcommands.is_empty() {
            return Err(format!(
                "missing subcommand (one of: {})",
                spec.subcommands.join(" ")
            ));
        }
        let full = tier.as_deref() == Some("--full");
        let (width, height, generations, population) = if full {
            (1536, 1024, 25, 32)
        } else {
            (192, 128, 4, 10)
        };
        Ok(Args {
            config: HarnessConfig {
                width,
                height,
                threads,
                generations,
                population,
                backend,
            },
            full,
            subcommand,
            flags,
        })
    }

    /// The sizes, thread count and backend the shared flags selected.
    pub fn config(&self) -> HarnessConfig {
        self.config
    }

    /// Whether `--full` was given.
    pub fn full(&self) -> bool {
        self.full
    }

    /// The subcommand, when the spec declares any.
    pub fn subcommand(&self) -> Option<&str> {
        self.subcommand.as_deref()
    }

    /// Whether the spec-declared switch `name` was given.
    pub fn switch(&self, name: &str) -> bool {
        self.value(name).is_some()
    }

    /// The value of the spec-declared flag `name` (the last one wins).
    pub fn value(&self, name: &str) -> Option<&str> {
        let given = self.flags.iter().rev().find(|(k, _)| k == name);
        given.map(|(_, v)| v.as_str())
    }
}

/// Formats a duration in milliseconds with two decimals.
fn ms(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1e3)
}

/// One printed table: what every `repro` subcommand produces.
#[derive(Debug, Clone)]
pub struct Table {
    /// The heading line, e.g. `Fig. 6 — properties of the example applications`.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// One `Vec` of cells per row, aligned with `headers`.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// `headers` as they print: column names separated by `" | "`.
    fn new(title: impl Into<String>, headers: &str) -> Table {
        Table {
            title: title.into(),
            headers: headers.split(" | ").map(str::to_string).collect(),
            rows: Vec::new(),
        }
    }

    /// Prints the title, a blank line, then Markdown-style rows.
    pub fn print(&self) {
        println!("{}\n", self.title);
        println!("| {} |", self.headers.join(" | "));
        for row in &self.rows {
            println!("| {} |", row.join(" | "));
        }
    }
}

/// The `repro` subcommands, in the paper's order.
pub const SUBCOMMANDS: [&str; 8] = [
    "fig3", "fig6", "fig7", "fig8", "sec31", "sec5", "sec61", "ablation",
];

/// Builds the table(s) of one `repro` subcommand, or `None` for a name
/// not in [`SUBCOMMANDS`].
pub fn tables(subcommand: &str, cfg: &HarnessConfig) -> Option<Vec<Table>> {
    Some(match subcommand {
        "fig3" => vec![blur_strategy_table(cfg)],
        "fig6" => vec![app_properties_table()],
        "fig7" => vec![app_performance_table(cfg)],
        "fig8" => vec![cross_resolution_table(cfg)],
        "sec31" => vec![blur_speedup_table(cfg)],
        "sec5" => vec![search_space_table()],
        "sec61" => autotune_convergence_tables(cfg),
        "ablation" => vec![ablation_table(cfg)],
        _ => return None,
    })
}

/// One measured blur schedule: the numbers behind Fig. 3 and Sec. 3.1.
#[derive(Debug, Clone)]
struct BlurStrategyRow {
    strategy: &'static str,
    /// Parallel tasks available (the "span" proxy).
    span: u64,
    /// Peak bytes of intermediate storage live (locality / reuse-distance proxy).
    peak_live_bytes: u64,
    /// Work amplification vs. breadth-first.
    work_amplification: f64,
    wall: Duration,
}

/// Runs every blur schedule on the same input and reports span, locality,
/// work amplification, and time.
fn blur_strategy_rows(cfg: &HarnessConfig) -> Vec<BlurStrategyRow> {
    let input = halide_pipelines::blur::make_input(cfg.width, cfg.height);
    let mut rows = Vec::new();
    let mut baseline_ops: Option<u64> = None;
    for schedule in BlurSchedule::ALL {
        let app = BlurApp::new();
        schedule.apply(&app);
        let module = lower(&app.pipeline()).expect("built-in schedule lowers");
        let extents = [cfg.width, cfg.height];
        let result = realize(
            &module,
            app.input.name(),
            &input,
            &extents,
            cfg.threads,
            cfg,
            true,
        );
        let ops = result.counters.arith_ops;
        let baseline = *baseline_ops.get_or_insert(ops);
        rows.push(BlurStrategyRow {
            strategy: schedule.label(),
            span: result.counters.parallel_tasks,
            peak_live_bytes: result.counters.peak_bytes_live,
            work_amplification: ops as f64 / baseline as f64,
            wall: result.wall_time,
        });
    }
    rows
}

/// Fig. 3: span (available parallelism), locality (peak live intermediate
/// storage), and work amplification for the blur scheduling strategies of
/// Sec. 3.1.
fn blur_strategy_table(cfg: &HarnessConfig) -> Table {
    let mut t = Table::new(
        format!(
            "Fig. 3 — two-stage blur strategies ({}x{}, {} threads)",
            cfg.width, cfg.height, cfg.threads
        ),
        "Strategy | Span (tasks) | Peak live bytes | Work ampl. | Time (ms)",
    );
    for r in blur_strategy_rows(cfg) {
        t.rows.push(vec![
            r.strategy.to_string(),
            r.span.to_string(),
            r.peak_live_bytes.to_string(),
            format!("{:.3}x", r.work_amplification),
            ms(r.wall),
        ]);
    }
    t
}

/// The Sec. 3.1 claim: on a bandwidth-bound machine the tiled/fused
/// schedule beats breadth-first by a large factor at equal parallelism.
/// Under an interpreting backend the gap is smaller but the ordering (who
/// wins) holds.
fn blur_speedup_table(cfg: &HarnessConfig) -> Table {
    let rows = blur_strategy_rows(cfg);
    let (bf, fused) = rows.split_first().expect("breadth-first is measured first");
    let best = fused
        .iter()
        .min_by_key(|r| r.wall)
        .expect("fused schedules were measured");
    let mut t = Table::new(
        "Sec. 3.1 — blur: breadth-first vs best fused schedule",
        "Strategy | Time (ms) | Peak live bytes | Speedup | Working-set reduction",
    );
    for r in [bf, best] {
        t.rows.push(vec![
            r.strategy.to_string(),
            ms(r.wall),
            r.peak_live_bytes.to_string(),
            format!("{:.2}x", bf.wall.as_secs_f64() / r.wall.as_secs_f64()),
            format!(
                "{:.1}x",
                bf.peak_live_bytes as f64 / r.peak_live_bytes.max(1) as f64
            ),
        ]);
    }
    t
}

/// Fig. 6: number of functions, stencils, and graph structure of each
/// benchmark application.
fn app_properties_table() -> Table {
    let mut t = Table::new(
        "Fig. 6 — properties of the example applications",
        "Application | # functions | # stencils | structure",
    );
    for (app, pipeline) in [
        ("Blur", BlurApp::new().pipeline()),
        ("Bilateral grid", BilateralGridApp::new().pipeline()),
        ("Camera pipe", CameraPipeApp::new(2.2, 0.8).pipeline()),
        ("Interpolate (6 levels)", InterpolateApp::new(6).pipeline()),
        (
            "Local Laplacian (8 levels)",
            LocalLaplacianApp::new(8, 8, 1.0, 0.7).pipeline(),
        ),
    ] {
        let stats = analyze(&pipeline);
        t.rows.push(vec![
            app.to_string(),
            stats.functions.to_string(),
            stats.stencils.to_string(),
            stats.structure().to_string(),
        ]);
    }
    t
}

/// The x86 half of Fig. 7: for every app, the naive (breadth-first,
/// serial) schedule vs. the tuned schedule, plus the hand-written Rust
/// reference where one exists. The meaningful numbers are the *ratios*,
/// not the absolute milliseconds.
fn app_performance_table(cfg: &HarnessConfig) -> Table {
    let mut t = Table::new(
        format!(
            "Fig. 7 (CPU) — naive vs tuned schedules ({}x{}, {} threads)",
            cfg.width, cfg.height, cfg.threads
        ),
        "Application | Naive (ms) | Tuned (ms) | Speedup | Hand-written ref (ms)",
    );
    let (w, h) = (cfg.width, cfg.height);
    for app in AppKind::PAPER_APPS {
        let run = |schedule, threads| {
            let built = app.build(w, h, schedule).expect("built-in schedule lowers");
            let input = app.make_input(w, h);
            let extents = app.output_extents(w, h);
            // Counters off: this table is about wall time.
            realize(
                &built.module,
                &built.input_name,
                &input,
                &extents,
                threads,
                cfg,
                false,
            )
        };
        let naive = run(ScheduleChoice::Naive, 1);
        let tuned = run(ScheduleChoice::Tuned, cfg.threads);
        let reference = app.reference_time(cfg.width, cfg.height, cfg.threads);
        t.rows.push(vec![
            app.name().to_string(),
            ms(naive.wall_time),
            ms(tuned.wall_time),
            format!(
                "{:.2}x",
                naive.wall_time.as_secs_f64() / tuned.wall_time.as_secs_f64().max(1e-9)
            ),
            reference.map(ms).unwrap_or_else(|| "-".into()),
        ]);
    }
    t
}

/// Realizes `module` once on the harness's backend, `input` bound as
/// `input_name`; `instrument` turns the per-op counters on (they cost wall
/// time).
fn realize(
    module: &Module,
    input_name: &str,
    input: &Buffer,
    extents: &[i64],
    threads: usize,
    cfg: &HarnessConfig,
    instrument: bool,
) -> Realization {
    Realizer::new(module)
        .input(input_name, input.clone())
        .threads(threads)
        .instrument(instrument)
        .backend(cfg.backend)
        .realize(extents)
        .expect("built-in schedule runs")
}

/// Autotunes blur at `size` with the harness's population and generations.
fn tune_blur(cfg: &HarnessConfig, size: (i64, i64)) -> (BlurApp, halide_autotune::TuneResult) {
    let app = BlurApp::new();
    let tuner = Autotuner::new(TuneOptions {
        population: cfg.population,
        generations: cfg.generations,
        ..Default::default()
    });
    let result = tuner.tune(
        &app.pipeline(),
        verified_evaluator(
            app.input.name().to_string(),
            halide_pipelines::blur::make_input(size.0, size.1),
            vec![size.0, size.1],
            cfg.threads,
        ),
    );
    (app, result)
}

/// Fig. 8's protocol with the autotuner: tune at the source size,
/// cross-test the winning schedule at the target size, and compare against
/// a schedule tuned directly at the target size.
fn cross_resolution_table(cfg: &HarnessConfig) -> Table {
    let mut t = Table::new(
        "Fig. 8 — cross-testing autotuned schedules across resolutions",
        "Application | Source size | Target size | Cross-tested (ms) | Tuned on target (ms) | Slowdown",
    );
    let small = (cfg.width / 4, cfg.height / 4);
    let large = (cfg.width, cfg.height);

    // Blur is the app whose schedule space is cheap enough to search in both
    // directions even under --quick.
    for (source, target) in [(small, large), (large, small)] {
        let (app, tuned_at_source) = tune_blur(cfg, source);

        // Cross-test at the target size.
        let pipeline = app.pipeline();
        apply_genome(&pipeline, &tuned_at_source.best);
        let target_input = halide_pipelines::blur::make_input(target.0, target.1);
        let cross = match halide_lower::lower(&pipeline).ok().and_then(|m| {
            Realizer::new(&m)
                .input(app.input.name(), target_input)
                .threads(cfg.threads)
                .instrument(false)
                .realize(&[target.0, target.1])
                .ok()
        }) {
            Some(r) => r.wall_time,
            // A schedule tuned at a large size can be invalid at a much
            // smaller one (tile larger than the image) — report it as an
            // effectively infinite slowdown, which is the paper's point.
            None => Duration::from_secs(3600),
        };

        let (_, native) = tune_blur(cfg, target);
        t.rows.push(vec![
            "Blur".to_string(),
            format!("{}x{}", source.0, source.1),
            format!("{}x{}", target.0, target.1),
            ms(cross),
            ms(native.best_time),
            format!(
                "{:.2}x",
                cross.as_secs_f64() / native.best_time.as_secs_f64().max(1e-9)
            ),
        ]);
    }
    t
}

/// The Sec. 5 estimate of the size of the schedule search space (the paper
/// estimates a lower bound of 10^720 schedules for the 99-stage local
/// Laplacian pipeline).
fn search_space_table() -> Table {
    let mut t = Table::new(
        "Sec. 5 — schedule search-space size estimates (paper's lower bound \
         for the 99-stage local Laplacian: 10^720)",
        "Pipeline | Stages | # schedules",
    );
    let blur = BlurApp::new().pipeline();
    t.rows.push(vec![
        "blur".to_string(),
        analyze(&blur).functions.to_string(),
        format!("10^{:.0}", search_space_log10(&blur)),
    ]);
    for levels in [4, 8] {
        let llf = LocalLaplacianApp::new(levels, 8, 1.0, 0.7);
        t.rows.push(vec![
            format!("local Laplacian ({levels} levels)"),
            llf.stage_count().to_string(),
            format!("10^{:.0}", search_space_log10(&llf.pipeline())),
        ]);
    }
    t
}

/// The Sec. 6.1 observation that stochastic search converges to a good
/// schedule within a modest number of generations: the best time per
/// generation on blur, then the schedule the search settled on.
fn autotune_convergence_tables(cfg: &HarnessConfig) -> Vec<Table> {
    let (_, result) = tune_blur(cfg, (cfg.width, cfg.height));
    let mut history = Table::new(
        format!(
            "Sec. 6.1 — autotuner convergence on blur ({}x{}, population {}, {} generations)",
            cfg.width, cfg.height, cfg.population, cfg.generations
        ),
        "generation | best (ms) | evaluated | rejected",
    );
    for h in &result.history {
        history.rows.push(vec![
            h.generation.to_string(),
            ms(h.best),
            h.evaluated.to_string(),
            h.rejected.to_string(),
        ]);
    }
    let mut best = Table::new(
        format!("best schedule found ({} ms)", ms(result.best_time)),
        "Func | Schedule",
    );
    for (f, s) in &result.best {
        best.rows.push(vec![f.to_string(), s.describe()]);
    }
    vec![history, best]
}

/// Ablation of the lowering optimizations: sliding window and storage
/// folding, measured on the sliding-window blur schedule.
fn ablation_table(cfg: &HarnessConfig) -> Table {
    let mut t = Table::new(
        "Ablation — sliding window & storage folding on the sliding-window blur schedule",
        "Lowering options | Time (ms) | Arith ops | Peak live bytes",
    );
    let input = halide_pipelines::blur::make_input(cfg.width, cfg.height);
    for (label, sliding_window, storage_folding) in [
        ("all optimizations", true, true),
        ("no sliding window", false, true),
        ("no storage folding", true, false),
        ("neither", false, false),
    ] {
        let opts = LowerOptions {
            sliding_window,
            storage_folding,
        };
        let app = BlurApp::new();
        BlurSchedule::SlidingWindow.apply(&app);
        let module = lower_with_options(&app.pipeline(), &opts).expect("lowers");
        let extents = [cfg.width, cfg.height];
        let result = realize(&module, app.input.name(), &input, &extents, 1, cfg, true);
        t.rows.push(vec![
            label.to_string(),
            ms(result.wall_time),
            result.counters.arith_ops.to_string(),
            result.counters.peak_bytes_live.to_string(),
        ]);
    }
    t
}

/// Builds an evaluator closure for the autotuner that compiles a pipeline,
/// runs it on the given input, verifies the output against the first valid
/// run, and reports the wall time.
fn verified_evaluator(
    input_name: String,
    input: Buffer,
    output_extents: Vec<i64>,
    threads: usize,
) -> impl FnMut(&halide_lang::Pipeline) -> Option<Duration> {
    let mut reference: Option<Buffer> = None;
    move |p: &halide_lang::Pipeline| {
        let module = halide_lower::lower(p).ok()?;
        let result = Realizer::new(&module)
            .input(input_name.clone(), input.clone())
            .threads(threads)
            .instrument(false)
            .realize(&output_extents)
            .ok()?;
        match &reference {
            None => reference = Some(result.output),
            Some(r) => {
                if r.max_abs_diff(&result.output) > 1e-3 {
                    return None;
                }
            }
        }
        Some(result.wall_time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> HarnessConfig {
        HarnessConfig {
            width: 96,
            height: 64,
            threads: 2,
            generations: 2,
            population: 4,
            backend: Backend::Compiled,
        }
    }

    fn cell<T: std::str::FromStr>(cell: &str) -> T {
        cell.trim_end_matches('x')
            .parse()
            .unwrap_or_else(|_| panic!("cell {cell:?} is not a number"))
    }

    #[test]
    fn blur_strategy_table_has_expected_shape() {
        let rows = blur_strategy_rows(&tiny());
        assert_eq!(rows.len(), BlurSchedule::ALL.len());
        // breadth-first is the work baseline
        assert!((rows[0].work_amplification - 1.0).abs() < 1e-9);
        // full fusion roughly doubles the work
        assert!(rows[1].work_amplification > 1.5);
        // sliding window does not amplify work
        assert!(rows[2].work_amplification < 1.25);
        // sliding window's working set is far smaller than breadth-first's
        assert!(rows[2].peak_live_bytes < rows[0].peak_live_bytes / 4);
    }

    #[test]
    fn app_properties_cover_the_five_apps() {
        let t = app_properties_table();
        assert_eq!(t.rows.len(), 5);
        let row = |prefix: &str| {
            t.rows
                .iter()
                .find(|r| r[0].starts_with(prefix))
                .unwrap_or_else(|| panic!("no {prefix} row"))
        };
        let llf_functions: usize = cell(&row("Local Laplacian")[1]);
        assert!(
            llf_functions > 50,
            "local Laplacian has {llf_functions} funcs"
        );
        assert_eq!(row("Blur")[1..3], ["2", "2"]);
    }

    /// Every `repro` subcommand at a tiny size: the table functions run end
    /// to end and keep their published column headers and row counts.
    #[test]
    fn every_repro_subcommand_produces_its_table() {
        let cfg = tiny();
        #[rustfmt::skip]
        let expect = [
            ("fig3", "Strategy | Span (tasks) | Peak live bytes | Work ampl. | Time (ms)", BlurSchedule::ALL.len()),
            ("fig6", "Application | # functions | # stencils | structure", 5),
            ("fig7", "Application | Naive (ms) | Tuned (ms) | Speedup | Hand-written ref (ms)", AppKind::PAPER_APPS.len()),
            ("fig8", "Application | Source size | Target size | Cross-tested (ms) | Tuned on target (ms) | Slowdown", 2),
            ("sec31", "Strategy | Time (ms) | Peak live bytes | Speedup | Working-set reduction", 2),
            ("sec5", "Pipeline | Stages | # schedules", 3),
            // the seeded population is generation 0
            ("sec61", "generation | best (ms) | evaluated | rejected", cfg.generations + 1),
            ("ablation", "Lowering options | Time (ms) | Arith ops | Peak live bytes", 4),
        ];
        assert_eq!(expect.map(|(name, ..)| name), SUBCOMMANDS);
        let mut built = std::collections::BTreeMap::new();
        for (name, headers, rows) in expect {
            let tables = tables(name, &cfg).expect("a listed subcommand");
            assert!(!tables[0].title.is_empty());
            assert_eq!(tables[0].headers.join(" | "), headers, "{name} headers");
            assert_eq!(tables[0].rows.len(), rows, "{name} row count");
            for t in &tables {
                assert!(t.rows.iter().all(|r| r.len() == t.headers.len()), "{name}");
            }
            built.insert(name, tables);
        }
        assert!(tables("fig9", &cfg).is_none());

        // Spot checks that the cells carry the measurements, not filler.
        assert_eq!(built["sec31"][0].rows[0][0], "Breadth-first");
        assert_eq!(cell::<f64>(&built["sec31"][0].rows[0][3]), 1.0);
        assert_eq!(built["sec61"][1].headers, ["Func", "Schedule"]);
        assert!(!built["sec61"][1].rows.is_empty());
    }

    const SPEC: CliSpec = CliSpec {
        usage: "test [--12mp] [--out FILE]",
        subcommands: &[],
        switches: &["--12mp"],
        valued: &["--out"],
    };

    fn parse(argv: &str, spec: &CliSpec) -> Result<Args, String> {
        Args::parse(argv.split_whitespace().map(str::to_string), spec)
    }

    #[test]
    fn args_parse_the_shared_and_declared_flags() {
        let a = parse(
            "--full --threads 3 --backend interp --12mp --out x.json",
            &SPEC,
        )
        .unwrap();
        assert!(a.full() && a.switch("--12mp"));
        assert_eq!(a.value("--out"), Some("x.json"));
        assert_eq!(
            (a.config().threads, a.config().backend),
            (3, Backend::Interp)
        );
        assert_eq!((a.config().width, a.config().height), (1536, 1024));

        let quick = parse("", &SPEC).unwrap();
        assert!(!quick.full() && !quick.switch("--12mp"));
        assert_eq!(quick.value("--out"), None);
        assert_eq!((quick.config().width, quick.config().height), (192, 128));
        assert_eq!(
            quick.config().threads,
            halide_runtime::num_threads_default()
        );
    }

    #[test]
    fn args_reject_what_they_do_not_understand() {
        for (argv, names) in [
            ("--quik", "--quik"),
            ("--threads abc", "abc"),
            ("--threads 0", "\"0\""),
            ("--threads", "--threads needs a value"),
            ("--backend llvm", "llvm"),
            ("--out", "--out needs a value"),
            ("--quick --full", "mutually exclusive"),
            ("fig3", "fig3"),
            ("--dump-pir", "--dump-pir"),
        ] {
            let err = parse(argv, &SPEC).expect_err("must be rejected");
            assert!(err.contains(names), "{argv:?}: {err}");
        }
    }

    #[test]
    fn args_require_exactly_one_known_subcommand() {
        let spec = CliSpec {
            subcommands: &SUBCOMMANDS,
            ..SPEC
        };
        let a = parse("--quick fig8 --threads 1", &spec).unwrap();
        assert_eq!(a.subcommand(), Some("fig8"));
        assert!(parse("", &spec).unwrap_err().contains("missing subcommand"));
        assert!(parse("fig9", &spec).unwrap_err().contains("fig9"));
        // A removed subcommand is an error, not a silent no-op.
        assert!(parse("fig7-gpu", &spec).unwrap_err().contains("fig7-gpu"));
        assert!(parse("fig3 fig6", &spec).unwrap_err().contains("fig6"));
    }
}
