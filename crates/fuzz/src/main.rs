//! The fuzz campaign driver.
//!
//! ```text
//! cargo run -p halide-fuzz -- --cases 500 --seed 0
//! ```
//!
//! Generates `--cases` consecutive seeds starting at `--seed`, runs each
//! through the differential matrix, and on failure shrinks to a minimal
//! case written into `--corpus-dir` (default `tests/corpus/`) as
//! `fuzz_seed_<seed>.case` — the file a `cargo test` replay then guards
//! forever. Exits nonzero if any case failed. `--stats-out` additionally
//! writes a JSON stats report: throughput, per-phase time (generate /
//! lower / differential matrix), and how often each grammar op and
//! schedule directive was exercised.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use halide_fuzz::{corpus, grammar, run, shrink};
use halide_trace::JsonValue;

struct Args {
    cases: u64,
    seed: u64,
    corpus_dir: PathBuf,
    stats_out: Option<PathBuf>,
    quiet: bool,
    replay: Option<PathBuf>,
    pin: Vec<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        cases: 200,
        seed: 0,
        corpus_dir: PathBuf::from("tests/corpus"),
        stats_out: None,
        quiet: false,
        replay: None,
        pin: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} requires a {what} argument"))
        };
        match flag.as_str() {
            "--cases" => {
                args.cases = value("count")?
                    .parse()
                    .map_err(|e| format!("--cases: {e}"))?
            }
            "--seed" => args.seed = value("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--corpus-dir" => args.corpus_dir = PathBuf::from(value("path")?),
            "--stats-out" => args.stats_out = Some(PathBuf::from(value("path")?)),
            "--replay" => args.replay = Some(PathBuf::from(value("path")?)),
            "--pin" => {
                for s in value("seed list")?.split(',') {
                    args.pin
                        .push(s.trim().parse().map_err(|e| format!("--pin: {e}"))?);
                }
            }
            "--quiet" => args.quiet = true,
            "--help" | "-h" => {
                return Err(
                    "usage: halide-fuzz [--cases N] [--seed S] [--corpus-dir DIR] \
                            [--stats-out FILE] [--replay FILE.case] [--pin S1,S2,...] [--quiet]"
                        .to_string(),
                )
            }
            other => return Err(format!("unknown flag {other:?} (try --help)")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };

    // Replay mode: run one corpus file through the matrix and report.
    if let Some(path) = &args.replay {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        };
        let case = match corpus::from_text(&text) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("{}: parse error: {e}", path.display());
                return ExitCode::FAILURE;
            }
        };
        let (built, module) = match halide_fuzz::admit(&case) {
            Ok(admitted) => admitted,
            Err(e) => {
                eprintln!("{}: inadmissible case: {e}", path.display());
                return ExitCode::FAILURE;
            }
        };
        return match run::run_case_lowered(&case, &built, &module) {
            Ok(()) => {
                println!("{}: PASS", path.display());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("{}: FAIL: {e}", path.display());
                ExitCode::FAILURE
            }
        };
    }

    // Pin mode: write the generated case for each listed seed into the
    // corpus (after checking it passes), so `cargo test` replays it forever.
    if !args.pin.is_empty() {
        if let Err(e) = std::fs::create_dir_all(&args.corpus_dir) {
            eprintln!("cannot create corpus dir: {e}");
            return ExitCode::FAILURE;
        }
        for &seed in &args.pin {
            let case = grammar::generate(seed);
            if let Err(e) = run::run_case(&case) {
                eprintln!("seed {seed} does not pass the matrix, not pinning: {e}");
                return ExitCode::FAILURE;
            }
            let path = args.corpus_dir.join(format!("pinned_seed_{seed}.case"));
            if let Err(e) = std::fs::write(&path, corpus::to_text(&case)) {
                eprintln!("cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            println!("pinned seed {seed} -> {}", path.display());
        }
        return ExitCode::SUCCESS;
    }

    let start = Instant::now();
    let (mut gen_time, mut lower_time, mut matrix_time) =
        (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    let mut failures: Vec<(u64, String)> = Vec::new();
    let mut stage_count = 0usize;
    let mut op_hist: BTreeMap<&'static str, usize> = BTreeMap::new();
    let mut dir_hist: BTreeMap<&'static str, usize> = BTreeMap::new();

    for i in 0..args.cases {
        let seed = args.seed + i;
        let t = Instant::now();
        let (case, built) = grammar::generate_built(seed);
        gen_time += t.elapsed();
        stage_count += case.stages.len();
        for s in &case.stages {
            *op_hist.entry(s.op.tag()).or_default() += 1;
            for d in &s.directives {
                *dir_hist.entry(d.tag()).or_default() += 1;
            }
        }
        let t = Instant::now();
        let lowered = built.admit(&case);
        lower_time += t.elapsed();
        let t = Instant::now();
        let outcome = lowered.and_then(|module| run::run_case_lowered(&case, &built, &module));
        matrix_time += t.elapsed();
        match outcome {
            Ok(()) => {
                if !args.quiet && (i + 1) % 100 == 0 {
                    eprintln!("[halide-fuzz] {}/{} cases ok", i + 1, args.cases);
                }
            }
            Err(msg) => {
                eprintln!("[halide-fuzz] seed {seed} FAILED: {msg}");
                eprintln!("[halide-fuzz] shrinking...");
                let minimal = shrink::shrink(&case);
                let min_msg = run::run_case(&minimal).err().unwrap_or_else(|| msg.clone());
                let text = corpus::to_text(&minimal);
                if let Err(e) = std::fs::create_dir_all(&args.corpus_dir) {
                    eprintln!("[halide-fuzz] cannot create corpus dir: {e}");
                }
                let path = args.corpus_dir.join(format!("fuzz_seed_{seed}.case"));
                match std::fs::write(&path, &text) {
                    Ok(()) => eprintln!(
                        "[halide-fuzz] minimized repro written to {}",
                        path.display()
                    ),
                    Err(e) => eprintln!("[halide-fuzz] cannot write {}: {e}", path.display()),
                }
                eprintln!("[halide-fuzz] minimized failure: {min_msg}\n{text}");
                failures.push((seed, min_msg));
            }
        }
    }

    let elapsed = start.elapsed();
    let per_sec = args.cases as f64 / elapsed.as_secs_f64().max(1e-9);
    println!(
        "halide-fuzz: {} cases ({} stages) in {:.2?} — {:.1} cases/s, {} failure(s)",
        args.cases,
        stage_count,
        elapsed,
        per_sec,
        failures.len()
    );
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    if !args.quiet {
        println!(
            "  generate {:.1} ms, lower {:.1} ms, differential matrix {:.1} ms",
            ms(gen_time),
            ms(lower_time),
            ms(matrix_time)
        );
        let fmt = |h: &BTreeMap<&str, usize>| {
            h.iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect::<Vec<_>>()
                .join(" ")
        };
        println!("  ops:        {}", fmt(&op_hist));
        println!("  directives: {}", fmt(&dir_hist));
    }

    if let Some(path) = &args.stats_out {
        let hist =
            |h: &BTreeMap<&'static str, usize>| JsonValue::object(h.iter().map(|(k, v)| (*k, *v)));
        let mut json = String::new();
        JsonValue::object([
            ("cases", JsonValue::from(args.cases)),
            ("seed", args.seed.into()),
            ("stages", stage_count.into()),
            ("failures", failures.len().into()),
            ("elapsed_ms", JsonValue::rounded(ms(elapsed), 3)),
            ("gen_ms", JsonValue::rounded(ms(gen_time), 3)),
            ("lower_ms", JsonValue::rounded(ms(lower_time), 3)),
            ("matrix_ms", JsonValue::rounded(ms(matrix_time), 3)),
            ("cases_per_sec", JsonValue::rounded(per_sec, 2)),
            ("ops", hist(&op_hist)),
            ("directives", hist(&dir_hist)),
        ])
        .write_pretty(&mut json);
        if let Err(e) = std::fs::write(path, json) {
            eprintln!(
                "[halide-fuzz] cannot write stats to {}: {e}",
                path.display()
            );
            return ExitCode::FAILURE;
        }
    }

    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        for (seed, msg) in &failures {
            eprintln!("seed {seed}: {}", msg.lines().next().unwrap_or(""));
        }
        ExitCode::FAILURE
    }
}
