//! What the machine and the build were, recorded into every results file,
//! and the guards that refuse a run whose numbers would mean nothing.

use std::process::Command;

use crate::json::Json;
use crate::programs::{BACKEND, OPT_LEVEL};

/// Cores the process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// `T`: the thread and client count the end-to-end workloads are sized by —
/// `nproc − 1`, at least 1 and at most 4 (capped so results from larger
/// machines stay comparable in shape). One logical CPU is left to the
/// generator, the OS and the neighbours: on the shared 2-vCPU box this was
/// written on, ten runs of a two-thread workload differed by 0.17–0.38
/// (interquartile range ÷ median) while one-thread workloads run in between
/// them differed by 0.02–0.10 — for minutes at a time the second vCPU is
/// mostly somebody else's, and no bound the driver allows survives that.
/// `T` is 1 there.
pub fn load_threads() -> usize {
    nproc().saturating_sub(1).clamp(1, 4)
}

/// `P`: the thread and client count of the traced pass's scaling probes
/// (`runtime.parallel_speedup`, `serve.coalesced_share`) — `min(nproc, 4)`,
/// every CPU there is. The probes carry no bound, so they can afford the
/// noise the end-to-end workloads cannot; they are what exercises the
/// thread pool and request coalescing on a box where `T` is 1.
pub fn probe_threads() -> usize {
    nproc().min(4)
}

/// Peak resident set of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The 1-minute load average, where the platform exposes one.
pub fn load_average() -> Option<f64> {
    std::fs::read_to_string("/proc/loadavg")
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// The environment block of a results file.
pub fn record(seed: u64) -> Json {
    Json::obj([
        ("nproc", Json::Num(nproc() as f64)),
        ("T", Json::Num(load_threads() as f64)),
        ("P", Json::Num(probe_threads() as f64)),
        ("rustc", Json::str(first_line_of("rustc", &["--version"]))),
        // "unknown" in the driver's checkout, which is not a git repository.
        (
            "git_commit",
            Json::str(first_line_of("git", &["rev-parse", "HEAD"])),
        ),
        ("seed", Json::Num(seed as f64)),
        ("opt_level", Json::str(OPT_LEVEL.name())),
        ("backend", Json::str(BACKEND.name())),
        (
            "load_average_1m",
            load_average().map_or(Json::Null, Json::Num),
        ),
    ])
}

/// Refuses a run that cannot produce comparable numbers: a debug build, or
/// `HALIDE_OPT` set (the benchmark pins the optimizer level; an override in
/// the environment would silently reach `ServeConfig::default()` and
/// `Realizer::new`). Warns — and only warns — when the box is already busy.
///
/// # Errors
///
/// The reason the run was refused.
pub fn guard() -> Result<(), String> {
    if cfg!(debug_assertions) {
        return Err("refusing to measure a debug build: run with `cargo run --release`".into());
    }
    if std::env::var_os("HALIDE_OPT").is_some() {
        return Err(
            "refusing to run with HALIDE_OPT set: the benchmark pins OptLevel::Default".into(),
        );
    }
    if let Some(load) = load_average() {
        // Back-to-back runs leave up to T of load behind them; only what is
        // beyond that is somebody else's.
        let t = load_threads();
        if load > t as f64 + 0.5 {
            eprintln!(
                "warning: 1-minute load average {load:.2} exceeds T = {t}; timings will be noisy"
            );
        }
    }
    Ok(())
}
