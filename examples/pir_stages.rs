//! Shows the pre-codegen optimizer at work: the linear program IR (PIR)
//! of a pipeline after linearization and after every optimization pass
//! that changed it, plus a per-app instruction-count summary.
//!
//! ```sh
//! cargo run --release --example pir_stages                      # blur, stage dumps
//! cargo run --release --example pir_stages -- --app camera-pipe # another app (by slug)
//! cargo run --release --example pir_stages -- --stats           # per-app summary table
//! ```
//!
//! The stage dumps are the optimizer's own trace
//! ([`compile_traced`](halide::exec::Program::compile_traced)): snapshot 0
//! is the raw linearization of the lowered statement, and each subsequent
//! snapshot is the IR after one pass that reported changes, in the order
//! the one walk in `crates/exec/src/opt.rs` runs them (strength-reduce,
//! licm, cse, dce; each once). `--stats` prints, for every benchmark app
//! at its tuned schedule, the executable instruction count before and
//! after optimization and which passes did the eliminating. The repository
//! benchmark reports the same counts, summed per workload, as
//! `exec.pir_insts_before` / `exec.pir_insts_after` / `exec.opt_changes.*`.

use halide::exec::{OptLevel, Program};
use halide::pipelines::{apps::ScheduleChoice, AppKind};

/// Image size the modules are built at. Compilation never executes the
/// loops, so the size only shapes loop bounds; this matches the size of
/// `BENCH_exec.json`'s interp-vs-compiled rows.
const SIZE: (i64, i64) = (192, 128);

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--stats") {
        stats_table();
        return;
    }
    let app = match args
        .iter()
        .position(|a| a == "--app")
        .and_then(|i| args.get(i + 1))
    {
        Some(slug) => AppKind::from_slug(slug)
            .unwrap_or_else(|| panic!("unknown app {slug:?}; use one of {:?}", slugs())),
        None => AppKind::Blur,
    };
    dump_stages(app);
}

fn slugs() -> Vec<&'static str> {
    AppKind::ALL.iter().map(|a| a.slug()).collect()
}

/// Prints every PIR snapshot the optimizer records for the app's tuned
/// schedule: the linearized program, then the IR after each pass that
/// changed something.
fn dump_stages(app: AppKind) {
    let built = app
        .build(SIZE.0, SIZE.1, ScheduleChoice::Tuned)
        .expect("tuned schedule lowers");
    let (program, stages) =
        Program::compile_traced(&built.module, OptLevel::Default).expect("tuned schedule compiles");
    let report = program.opt_report();
    println!(
        "{} (tuned, {}x{}): {} -> {} instructions",
        app.name(),
        SIZE.0,
        SIZE.1,
        report.before_insts,
        report.after_insts
    );
    for (i, stage) in stages.iter().enumerate() {
        println!("\n{}", "=".repeat(72));
        if stage.changes == 0 {
            println!("== stage {i}: {}", stage.name);
        } else {
            println!("== stage {i}: {} ({} change(s))", stage.name, stage.changes);
        }
        println!("{}", "=".repeat(72));
        print!("{}", stage.pir);
    }
}

/// Prints the per-app optimization summary: executable instruction counts
/// at `OptLevel::None` vs `OptLevel::Default` and the per-pass change
/// totals, for every app's tuned schedule.
fn stats_table() {
    println!(
        "{:<20} {:>8} {:>8} {:>7}  passes (changes)",
        "app (tuned)", "before", "after", "saved"
    );
    for app in AppKind::ALL {
        let built = app
            .build(SIZE.0, SIZE.1, ScheduleChoice::Tuned)
            .expect("tuned schedule lowers");
        let program = Program::compile_with(&built.module, OptLevel::Default)
            .expect("tuned schedule compiles");
        let report = program.opt_report();
        let saved = report.before_insts.saturating_sub(report.after_insts);
        let pct = 100.0 * saved as f64 / report.before_insts.max(1) as f64;
        let passes: Vec<String> = report
            .passes
            .iter()
            .filter(|p| p.changes > 0)
            .map(|p| format!("{} {}", p.name, p.changes))
            .collect();
        println!(
            "{:<20} {:>8} {:>8} {:>6.1}%  {}",
            app.name(),
            report.before_insts,
            report.after_insts,
            pct,
            passes.join(", ")
        );
    }
}
