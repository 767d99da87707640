//! Results files, the `run` fan-out (one child process per workload, so
//! `peak_rss_mb` is per workload) and the `compare` verdicts.

use std::path::{Path, PathBuf};
use std::process::Command;

use crate::json::Json;
use crate::{env, spans, spec, Outcome, RunConfig};

/// Where one pass of one workload keeps its detail file.
pub fn detail_path(out_dir: &Path, workload: &str, trace: bool) -> PathBuf {
    out_dir.join(format!(
        "{workload}.{}.json",
        if trace { "layers" } else { "e2e" }
    ))
}

/// Everything one pass measured, for `results.json` and `compare`.
pub fn detail(cfg: &RunConfig, outcome: &Outcome, wall_s: f64) -> Json {
    let units = spec::units(cfg.trace);
    let metrics = units.iter().map(|(name, unit)| {
        let mut row = vec![
            (
                "value".to_string(),
                Json::Num(outcome.metrics.get(name).copied().unwrap_or(f64::NAN)),
            ),
            ("unit".to_string(), Json::str(*unit)),
        ];
        if let Some(s) = outcome.spreads.get(name) {
            row.push(("spread".to_string(), Json::Num(*s)));
        }
        if let Some(s) = outcome.samples.get(name) {
            row.push((
                "samples".to_string(),
                Json::Arr(s.samples().iter().map(|v| Json::Num(*v)).collect()),
            ));
        }
        (name.clone(), Json::Obj(row))
    });
    let strings = |v: &[String]| Json::Arr(v.iter().map(Json::str).collect());
    Json::obj([
        ("workload", Json::str(&cfg.workload)),
        ("seconds", Json::Num(cfg.seconds)),
        ("smoke", Json::Bool(cfg.smoke)),
        ("env", env::record(cfg.seed)),
        ("wall_s", Json::Num(wall_s)),
        ("timed_s", Json::Num(outcome.timed_s)),
        ("rounds", Json::Num(outcome.rounds as f64)),
        ("correct", Json::Bool(outcome.correct())),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        (
            "failed_share",
            Json::Num(outcome.failed as f64 / outcome.attempted.max(1) as f64),
        ),
        ("failures", strings(&outcome.failures)),
        ("metrics", Json::obj(metrics)),
        (
            "exact_counts",
            Json::obj(
                outcome
                    .exact_counts
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Num(*v))),
            ),
        ),
    ])
}

/// Prints every metric of a pass by name with its unit, then writes the
/// detail file and (for the traced pass) the span file.
///
/// # Errors
///
/// The output directory or a file in it could not be written.
pub fn publish(
    cfg: &RunConfig,
    outcome: &Outcome,
    wall_s: f64,
    out_dir: &Path,
) -> Result<(), String> {
    let d = detail(cfg, outcome, wall_s);
    println!(
        "== {} (seed {}, {} pass): {} rounds in {:.1} s timed, {:.1} s wall",
        cfg.workload,
        cfg.seed,
        if cfg.trace { "traced" } else { "end-to-end" },
        outcome.rounds,
        outcome.timed_s,
        wall_s
    );
    for (name, row) in d.get("metrics").and_then(Json::as_obj).unwrap_or(&[]) {
        let value = row.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
        let unit = row.get("unit").and_then(Json::as_str).unwrap_or("");
        match row.get("spread").and_then(Json::as_f64) {
            Some(s) => println!("{name:<36} {value:>14.4} {unit:<7} {name}.spread {s:.4}"),
            None => println!("{name:<36} {value:>14.4} {unit}"),
        }
    }
    println!(
        "{:<36} {:>14.6} share   ({} failed of {} attempted)",
        "failed_share",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.failed,
        outcome.attempted
    );
    for f in &outcome.failures {
        println!("FAILED: {f}");
    }

    let write = |path: PathBuf, text: String| {
        std::fs::write(&path, text).map_err(|e| format!("writing {}: {e}", path.display()))
    };
    std::fs::create_dir_all(out_dir).map_err(|e| format!("creating {}: {e}", out_dir.display()))?;
    write(detail_path(out_dir, &cfg.workload, cfg.trace), d.pretty())?;
    if cfg.trace {
        write(
            out_dir.join(format!("trace-{}.json", cfg.workload)),
            spans::to_json(&cfg.workload, &outcome.spans).compact(),
        )?;
    }
    Ok(())
}

/// Options of the `run` subcommand.
#[derive(Debug, Clone)]
pub struct RunAll {
    /// Seed passed to every workload.
    pub seed: u64,
    /// `--seconds` passed to every workload.
    pub seconds: f64,
    /// Also make the traced pass.
    pub traced: bool,
    /// Smoke sizing.
    pub smoke: bool,
    /// Output directory.
    pub out_dir: PathBuf,
}

/// Runs every workload in a child process of its own (so peak memory is per
/// workload), then merges the detail files into `results.json`.
///
/// # Errors
///
/// A child could not be started or left no detail file. A child that ran
/// and found wrong outputs is reported through the returned flag instead.
pub fn run_all(opts: &RunAll) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let mut all_correct = true;
    let mut workloads = Vec::new();
    for (name, _) in spec::WORKLOADS {
        let mut passes = Vec::new();
        for trace in [false, true] {
            if trace && !opts.traced {
                continue;
            }
            let mut child = Command::new(&exe);
            child
                .args(["--workload", name, "--seed", &opts.seed.to_string()])
                .args(["--seconds", &opts.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .arg("--out-dir")
                .arg(&opts.out_dir);
            if opts.smoke {
                child.arg("--smoke");
            }
            // `status` waits for the child: no process outlives this call.
            let status = child
                .status()
                .map_err(|e| format!("starting {name}: {e}"))?;
            all_correct &= status.success();
            let path = detail_path(&opts.out_dir, name, trace);
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("{name} left no {}: {e}", path.display()))?;
            let pass = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
            passes.push((if trace { "per_layer" } else { "end_to_end" }, pass));
        }
        workloads.push((name, Json::obj(passes)));
    }
    let results = Json::obj([
        ("env", env::record(opts.seed)),
        ("seconds", Json::Num(opts.seconds)),
        // This benchmark defines the baseline; it claims no gain.
        ("claim", Json::Null),
        ("workloads", Json::obj(workloads)),
    ]);
    let path = opts.out_dir.join("results.json");
    std::fs::write(&path, results.pretty())
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    print_summary(&results);
    println!("results written to {}", path.display());
    Ok(all_correct)
}

fn print_summary(results: &Json) {
    println!(
        "\n{:<15} {:<16} {:>14} {:<7} {:>8}",
        "workload", "metric", "value", "unit", "spread"
    );
    for (workload, passes) in results
        .get("workloads")
        .and_then(Json::as_obj)
        .unwrap_or(&[])
    {
        let Some(pass) = passes.get("end_to_end") else {
            continue;
        };
        for m in spec::END_TO_END {
            let row = pass.get("metrics").and_then(|ms| ms.get(m.name));
            let field = |k| {
                row.and_then(|r| r.get(k))
                    .and_then(Json::as_f64)
                    .unwrap_or(f64::NAN)
            };
            println!(
                "{workload:<15} {:<16} {:>14.4} {:<7} {:>8.4}",
                m.name,
                field("value"),
                m.unit,
                field("spread")
            );
        }
        let n = |k| pass.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
        println!(
            "{workload:<15} {:<16} {:>14.6} {:<7} ({} of {})",
            "failed_share",
            n("failed_share"),
            "share",
            n("failed"),
            n("attempted")
        );
    }
}

/// One row of a comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Median in the base file (A).
    pub base: f64,
    /// Median in the other file (B).
    pub other: f64,
    /// `within-bound`, `regressed` or `unresolved`.
    pub verdict: &'static str,
}

/// The verdict for one metric: `unresolved` when either file's spread
/// ([`crate::stats::Series::spread`]) is wider than the bound — the run's
/// own segments disagree by more than the difference being judged, so it
/// can be called neither a regression nor unchanged; otherwise `regressed`
/// when B is worse than A by more than the bound, else `within-bound`.
/// `spread` is `None` for a metric read once per run (`peak_rss_mb`).
pub fn verdict(m: &spec::EndToEnd, base: f64, other: f64, spread: Option<f64>) -> &'static str {
    let worse_by = match m.better {
        "higher" => (base - other) / base,
        _ => (other - base) / base,
    };
    // A missing (NaN) value can never pass.
    if worse_by.is_nan() {
        "regressed"
    } else if spread.is_some_and(|s| s > m.bound) {
        "unresolved"
    } else if worse_by > m.bound {
        "regressed"
    } else {
        "within-bound"
    }
}

/// Compares two results files. Returns the rows and the problems that make
/// the comparison fail: regressions, exact-count mismatches, new failures.
pub fn compare(a: &Json, b: &Json) -> (Vec<Row>, Vec<String>) {
    let mut rows = Vec::new();
    let mut problems = Vec::new();
    let workloads = |j: &Json| {
        j.get("workloads")
            .and_then(Json::as_obj)
            .map(<[_]>::to_vec)
            .unwrap_or_default()
    };
    for (workload, a_passes) in workloads(a) {
        let Some(b_passes) = b.get("workloads").and_then(|w| w.get(&workload)) else {
            problems.push(format!("{workload}: missing from the second file"));
            continue;
        };
        if let (Some(pa), Some(pb)) = (a_passes.get("end_to_end"), b_passes.get("end_to_end")) {
            let num = |p: &Json, metric: &str, field: &str| {
                p.get("metrics")
                    .and_then(|m| m.get(metric))
                    .and_then(|r| r.get(field))
                    .and_then(Json::as_f64)
            };
            for m in &spec::END_TO_END {
                let value = |p| num(p, m.name, "value").unwrap_or(f64::NAN);
                let (base, other) = (value(pa), value(pb));
                let spreads = [num(pa, m.name, "spread"), num(pb, m.name, "spread")];
                let spread = spreads.into_iter().flatten().reduce(f64::max);
                let v = verdict(m, base, other, spread);
                if v == "regressed" {
                    problems.push(format!(
                        "{workload} {}: regressed ({base} -> {other})",
                        m.name
                    ));
                }
                rows.push(Row {
                    workload: workload.clone(),
                    metric: m.name.to_string(),
                    base,
                    other,
                    verdict: v,
                });
            }
            let share = |p: &Json| {
                p.get("failed_share")
                    .and_then(Json::as_f64)
                    .unwrap_or(f64::NAN)
            };
            if share(pa).is_nan() || share(pb).is_nan() || share(pb) > share(pa) {
                problems.push(format!(
                    "{workload} failed_share rose: {} -> {}",
                    share(pa),
                    share(pb)
                ));
            }
        }
        for pass in ["end_to_end", "per_layer"] {
            let counts = |p: &Json| {
                p.get(pass)
                    .and_then(|p| p.get("exact_counts"))
                    .and_then(Json::as_obj)
                    .map(<[_]>::to_vec)
            };
            if let (Some(ca), Some(cb)) = (counts(&a_passes), counts(b_passes)) {
                if ca != cb {
                    let differing: Vec<&str> = ca
                        .iter()
                        .filter(|(k, v)| {
                            cb.iter().find(|(kb, _)| kb == k).map(|(_, vb)| vb) != Some(v)
                        })
                        .map(|(k, _)| k.as_str())
                        .collect();
                    problems.push(format!(
                        "{workload} {pass}: exact counts differ: {differing:?}"
                    ));
                }
            }
        }
    }
    (rows, problems)
}

/// The `compare` subcommand: prints one row per workload × end-to-end
/// metric with both medians, the ratio and its base, and the verdict.
///
/// # Errors
///
/// A file could not be read or is not a results file.
pub fn compare_files(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let load = |p: &Path| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("reading {}: {e}", p.display()))
            .and_then(|t| Json::parse(&t).map_err(|e| format!("{}: {e}", p.display())))
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    let (rows, problems) = compare(&a, &b);
    if rows.is_empty() {
        return Err("the two files share no workload with an end-to-end pass".into());
    }
    println!(
        "{:<15} {:<16} {:>14} {:>14} {:>9}  verdict   (ratio = B / A, base A = {})",
        "workload",
        "metric",
        "A",
        "B",
        "ratio",
        a_path.display()
    );
    for r in &rows {
        println!(
            "{:<15} {:<16} {:>14.4} {:>14.4} {:>9.4}  {}",
            r.workload,
            r.metric,
            r.base,
            r.other,
            r.other / r.base,
            r.verdict
        );
    }
    for p in &problems {
        println!("PROBLEM: {p}");
    }
    Ok(problems.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn results(rps: f64, spread: f64, stmt_nodes: f64, failed: f64) -> Json {
        let metrics = spec::END_TO_END.iter().map(|m| {
            let value = if m.name == "throughput_rps" {
                rps
            } else {
                10.0
            };
            (
                m.name,
                Json::obj([("value", Json::Num(value)), ("spread", Json::Num(spread))]),
            )
        });
        let pass = Json::obj([
            ("metrics", Json::obj(metrics)),
            ("failed_share", Json::Num(failed)),
            (
                "exact_counts",
                Json::obj([("lower.stmt_nodes", Json::Num(stmt_nodes))]),
            ),
        ]);
        Json::obj([(
            "workloads",
            Json::obj([("serve_warm", Json::obj([("end_to_end", pass)]))]),
        )])
    }

    fn verdict_of(rows: &[Row], metric: &str) -> &'static str {
        rows.iter().find(|r| r.metric == metric).unwrap().verdict
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let base = results(100.0, 0.01, 5.0, 0.0);
        let (rows, problems) = compare(&base, &results(95.0, 0.01, 5.0, 0.0));
        assert_eq!(verdict_of(&rows, "throughput_rps"), "within-bound");
        assert!(problems.is_empty());

        let (rows, problems) = compare(&base, &results(70.0, 0.01, 5.0, 0.0));
        assert_eq!(
            verdict_of(&rows, "throughput_rps"),
            "regressed",
            "higher is better"
        );
        assert_eq!(problems.len(), 1);

        let (rows, problems) = compare(&base, &results(130.0, 0.01, 5.0, 0.0));
        assert_eq!(
            verdict_of(&rows, "throughput_rps"),
            "within-bound",
            "a gain is not a regression"
        );
        assert!(problems.is_empty());

        let (rows, problems) = compare(&base, &results(97.0, 0.3, 5.0, 0.0));
        assert_eq!(
            verdict_of(&rows, "throughput_rps"),
            "unresolved",
            "noise wider than the bound"
        );
        assert!(problems.is_empty());
    }

    #[test]
    fn count_mismatch_and_new_failures_are_problems() {
        let base = results(100.0, 0.01, 5.0, 0.0);
        let (_, problems) = compare(&base, &results(100.0, 0.01, 6.0, 0.0));
        assert!(
            problems.iter().any(|p| p.contains("lower.stmt_nodes")),
            "{problems:?}"
        );
        let (_, problems) = compare(&base, &results(100.0, 0.01, 5.0, 0.001));
        assert!(
            problems.iter().any(|p| p.contains("failed_share")),
            "{problems:?}"
        );
    }

    #[test]
    fn a_missing_value_never_passes() {
        let lower = spec::END_TO_END
            .iter()
            .find(|m| m.better == "lower")
            .unwrap();
        assert_eq!(verdict(lower, 10.0, f64::NAN, Some(0.0)), "regressed");
        assert_eq!(verdict(lower, 10.0, 10.5, Some(0.0)), "within-bound");
        assert_eq!(verdict(lower, 10.0, 13.0, None), "regressed");
        assert_eq!(
            verdict(lower, 10.0, 13.0, Some(0.3)),
            "unresolved",
            "noise wider than the bound hides a regression too"
        );
    }
}
