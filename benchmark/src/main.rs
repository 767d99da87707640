//! Command line of the repository benchmark.
//!
//! ```text
//! halide-benchmark --workload W --seed N --seconds S --trace 0|1   one pass of one workload (the driver's form)
//! halide-benchmark run [--seed N] [--seconds S] [--traced] [--smoke]
//! halide-benchmark compare A.json B.json
//! ```
//!
//! The last line of a single-workload run's standard output is the result
//! object: `correct`, `attempted`, `failed`, `metrics`.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use halide_benchmark::report::{self, RunAll};
use halide_benchmark::{env, run_workload, spec, RunConfig};

const USAGE: &str = "usage:
  halide-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke] [--out-dir <dir>]
  halide-benchmark run [--seed <n>] [--seconds <s>] [--traced] [--smoke] [--out-dir <dir>]
  halide-benchmark compare <A.json> <B.json>";

/// `--flag value` pairs and bare flags, in order.
struct Args(Vec<String>);

impl Args {
    fn flag(&mut self, name: &str) -> bool {
        let before = self.0.len();
        self.0.retain(|a| a != name);
        self.0.len() != before
    }

    fn value<T: std::str::FromStr>(&mut self, name: &str) -> Result<Option<T>, String> {
        let Some(i) = self.0.iter().position(|a| a == name) else {
            return Ok(None);
        };
        if i + 1 >= self.0.len() {
            return Err(format!("{name} needs a value"));
        }
        let v = self.0.remove(i + 1);
        self.0.remove(i);
        v.parse()
            .map(Some)
            .map_err(|_| format!("{name}: cannot parse {v:?}"))
    }

    fn finish(self) -> Result<(), String> {
        match self.0.first() {
            None => Ok(()),
            Some(extra) => Err(format!("unexpected argument {extra:?}")),
        }
    }
}

fn seconds(args: &mut Args) -> Result<f64, String> {
    let s = args.value::<f64>("--seconds")?.unwrap_or(spec::RUN_SECONDS);
    if s.is_finite() && s > 0.0 && s <= 600.0 {
        Ok(s)
    } else {
        Err(format!("--seconds must be in (0, 600], got {s}"))
    }
}

fn out_dir(args: &mut Args) -> Result<PathBuf, String> {
    Ok(args
        .value::<PathBuf>("--out-dir")?
        .unwrap_or_else(|| PathBuf::from("benchmark/out")))
}

/// Runs the command line; `Ok(true)` means every output was correct.
fn dispatch(mut args: Args) -> Result<bool, String> {
    match args.0.first().map(String::as_str) {
        Some("compare") => {
            let [_, a, b] = args.0.as_slice() else {
                return Err("compare takes exactly two files".into());
            };
            report::compare_files(&PathBuf::from(a), &PathBuf::from(b))
        }
        Some("run") => {
            args.0.remove(0);
            env::guard()?;
            let opts = RunAll {
                seed: args.value("--seed")?.unwrap_or(1),
                seconds: seconds(&mut args)?,
                traced: args.flag("--traced"),
                smoke: args.flag("--smoke"),
                out_dir: out_dir(&mut args)?,
            };
            args.finish()?;
            report::run_all(&opts)
        }
        _ => {
            env::guard()?;
            let trace = match args.value::<u8>("--trace")? {
                Some(0) | None => false,
                Some(1) => true,
                Some(n) => return Err(format!("--trace takes 0 or 1, got {n}")),
            };
            let cfg = RunConfig {
                workload: args.value("--workload")?.ok_or("--workload is required")?,
                seed: args.value("--seed")?.unwrap_or(1),
                seconds: seconds(&mut args)?,
                trace,
                smoke: args.flag("--smoke"),
            };
            let out_dir = out_dir(&mut args)?;
            args.finish()?;
            let start = Instant::now();
            let outcome = run_workload(&cfg)?;
            report::publish(&cfg, &outcome, start.elapsed().as_secs_f64(), &out_dir)?;
            println!("{}", outcome.result_line(cfg.trace).compact());
            Ok(outcome.correct())
        }
    }
}

fn main() -> ExitCode {
    match dispatch(Args(std::env::args().skip(1).collect())) {
        Ok(true) => ExitCode::SUCCESS,
        // Wrong outputs, failed operations or a regression: the result has
        // been printed, and the exit code says not to trust it.
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
