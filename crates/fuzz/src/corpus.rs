//! Corpus serialization: a `FuzzCase` as a small line-based text file,
//! dependency-free in both directions (`to_text` / `from_text`), so
//! minimized reproductions can be checked into `tests/corpus/` and
//! replayed forever by `cargo test` (see `crates/fuzz/tests/corpus_replay.rs`).
//!
//! The format is deliberately boring:
//!
//! ```text
//! # halide-fuzz case v1
//! seed 42
//! size 7 5
//! threads 2
//! stage stencil input 4 -1:0:1,0:0:2,1:0:1
//! stage point 0 threshold 1
//! sched 1 split x 4
//! sched 1 vectorize x_i
//! sched 0 compute_at 1 y
//! ```
//!
//! `stage` lines appear in index order; `sched` lines append one directive
//! to the named stage (in file order). Sources are `input` or a stage
//! index. All numbers are integers, so round-trips are exact.

use std::fmt::Write as _;

use halide_schedule::TailStrategy;

use crate::grammar::{CombineOp, Directive, FuzzCase, PointOp, Source, Stage, StageOp};

/// Header line identifying the format (and its version).
pub const HEADER: &str = "# halide-fuzz case v1";

fn src_str(s: Source) -> String {
    match s {
        Source::Input => "input".to_string(),
        Source::Stage(j) => j.to_string(),
    }
}

/// Serializes a case. The output parses back to an equal case via
/// [`from_text`].
pub fn to_text(case: &FuzzCase) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{HEADER}");
    let _ = writeln!(out, "seed {}", case.seed);
    let _ = writeln!(out, "size {} {}", case.width, case.height);
    let _ = writeln!(out, "threads {}", case.threads);
    for stage in &case.stages {
        match &stage.op {
            StageOp::Point { src, op } => {
                let (name, k) = match op {
                    PointOp::AddC(k) => ("addc", *k),
                    PointOp::MulC(k) => ("mulc", *k),
                    PointOp::Threshold(k) => ("threshold", *k),
                    PointOp::ClampC(k) => ("clampc", *k),
                    PointOp::AbsDiff(k) => ("absdiff", *k),
                };
                let _ = writeln!(out, "stage point {} {name} {k}", src_str(*src));
            }
            StageOp::Stencil { src, taps, div } => {
                let taps: Vec<String> = taps
                    .iter()
                    .map(|(dx, dy, w)| format!("{dx}:{dy}:{w}"))
                    .collect();
                let _ = writeln!(
                    out,
                    "stage stencil {} {div} {}",
                    src_str(*src),
                    taps.join(",")
                );
            }
            StageOp::Combine { a, b, op } => {
                let name = match op {
                    CombineOp::Add => "add",
                    CombineOp::Sub => "sub",
                    CombineOp::Mul => "mul",
                    CombineOp::Min => "min",
                    CombineOp::Max => "max",
                };
                let _ = writeln!(out, "stage combine {} {} {name}", src_str(*a), src_str(*b));
            }
            StageOp::Reduce { src, rx, ry } => {
                let _ = writeln!(out, "stage reduce {} {rx} {ry}", src_str(*src));
            }
            StageOp::Scan { src, extent } => {
                let _ = writeln!(out, "stage scan {} {extent}", src_str(*src));
            }
        }
    }
    for (i, stage) in case.stages.iter().enumerate() {
        for d in &stage.directives {
            let line = directive_text(d);
            let _ = writeln!(out, "sched {i} {line}");
        }
    }
    out
}

/// One directive as the text after `sched <stage> `.
fn directive_text(d: &Directive) -> String {
    match d {
        Directive::Split { dim, factor, tail } => {
            if *tail == TailStrategy::default() {
                format!("split {dim} {factor}")
            } else {
                format!("split {dim} {factor} {tail}")
            }
        }
        Directive::Reorder(dims) => format!("reorder {}", dims.join(" ")),
        Directive::Parallel(dim) => format!("parallel {dim}"),
        Directive::Vectorize(dim) => format!("vectorize {dim}"),
        Directive::Unroll(dim) => format!("unroll {dim}"),
        Directive::ComputeAt { consumer, dim } => format!("compute_at {consumer} {dim}"),
        Directive::ComputeInline => "compute_inline".to_string(),
        Directive::StoreRoot => "store_root".to_string(),
        Directive::Update(d) => format!("update {}", directive_text(d)),
    }
}

/// Parses the tokens of one directive (the text after `sched <stage> `).
fn parse_directive(toks: &[&str]) -> Result<Directive, String> {
    Ok(match (toks[0], toks.len()) {
        ("split", 3) => Directive::Split {
            dim: toks[1].to_string(),
            factor: parse_num(toks[2], "split factor")?,
            tail: TailStrategy::default(),
        },
        ("split", 4) => Directive::Split {
            dim: toks[1].to_string(),
            factor: parse_num(toks[2], "split factor")?,
            tail: match toks[3] {
                "shift_inwards" => TailStrategy::ShiftInwards,
                "guard_with_if" => TailStrategy::GuardWithIf,
                "predicate" => TailStrategy::Predicate,
                "round_up" => TailStrategy::RoundUp,
                other => return Err(format!("unknown tail strategy {other:?}")),
            },
        },
        ("reorder", n) if n >= 2 => {
            Directive::Reorder(toks[1..].iter().map(|s| s.to_string()).collect())
        }
        ("parallel", 2) => Directive::Parallel(toks[1].to_string()),
        ("vectorize", 2) => Directive::Vectorize(toks[1].to_string()),
        ("unroll", 2) => Directive::Unroll(toks[1].to_string()),
        ("compute_at", 3) => Directive::ComputeAt {
            consumer: parse_num(toks[1], "consumer index")?,
            dim: toks[2].to_string(),
        },
        ("compute_inline", 1) => Directive::ComputeInline,
        ("store_root", 1) => Directive::StoreRoot,
        ("update", n) if n >= 2 => Directive::Update(Box::new(parse_directive(&toks[1..])?)),
        (other, _) => return Err(format!("unknown or malformed directive {other:?}")),
    })
}

fn parse_src(tok: &str) -> Result<Source, String> {
    if tok == "input" {
        Ok(Source::Input)
    } else {
        tok.parse::<usize>()
            .map(Source::Stage)
            .map_err(|_| format!("bad source {tok:?}"))
    }
}

fn parse_num<T: std::str::FromStr>(tok: &str, what: &str) -> Result<T, String> {
    tok.parse::<T>().map_err(|_| format!("bad {what}: {tok:?}"))
}

/// Parses a case serialized by [`to_text`].
///
/// # Errors
///
/// Fails with a line-numbered message on any malformed line. Parsing does
/// not validate the case semantically — replay harnesses call
/// [`crate::build::admit`] (or just run it) after parsing.
pub fn from_text(text: &str) -> Result<FuzzCase, String> {
    let mut case = FuzzCase {
        seed: 0,
        width: 0,
        height: 0,
        threads: 1,
        stages: Vec::new(),
    };
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        let err = |msg: String| Err(format!("line {}: {msg}", lineno + 1));
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let toks: Vec<&str> = line.split_whitespace().collect();
        match toks[0] {
            "seed" if toks.len() == 2 => case.seed = parse_num(toks[1], "seed")?,
            "size" if toks.len() == 3 => {
                case.width = parse_num(toks[1], "width")?;
                case.height = parse_num(toks[2], "height")?;
            }
            "threads" if toks.len() == 2 => case.threads = parse_num(toks[1], "threads")?,
            "stage" if toks.len() >= 2 => {
                let op = match (toks[1], toks.len()) {
                    ("point", 5) => {
                        let k: i32 = parse_num(toks[4], "point constant")?;
                        let op = match toks[3] {
                            "addc" => PointOp::AddC(k),
                            "mulc" => PointOp::MulC(k),
                            "threshold" => PointOp::Threshold(k),
                            "clampc" => PointOp::ClampC(k),
                            "absdiff" => PointOp::AbsDiff(k),
                            other => return err(format!("unknown point op {other:?}")),
                        };
                        StageOp::Point {
                            src: parse_src(toks[2])?,
                            op,
                        }
                    }
                    ("stencil", 5) => {
                        let mut taps = Vec::new();
                        for t in toks[4].split(',') {
                            let p: Vec<&str> = t.split(':').collect();
                            if p.len() != 3 {
                                return err(format!("bad tap {t:?}"));
                            }
                            taps.push((
                                parse_num(p[0], "tap dx")?,
                                parse_num(p[1], "tap dy")?,
                                parse_num(p[2], "tap weight")?,
                            ));
                        }
                        StageOp::Stencil {
                            src: parse_src(toks[2])?,
                            div: parse_num(toks[3], "divisor")?,
                            taps,
                        }
                    }
                    ("combine", 5) => StageOp::Combine {
                        a: parse_src(toks[2])?,
                        b: parse_src(toks[3])?,
                        op: match toks[4] {
                            "add" => CombineOp::Add,
                            "sub" => CombineOp::Sub,
                            "mul" => CombineOp::Mul,
                            "min" => CombineOp::Min,
                            "max" => CombineOp::Max,
                            other => return err(format!("unknown combine op {other:?}")),
                        },
                    },
                    ("reduce", 5) => StageOp::Reduce {
                        src: parse_src(toks[2])?,
                        rx: parse_num(toks[3], "window width")?,
                        ry: parse_num(toks[4], "window height")?,
                    },
                    ("scan", 4) => StageOp::Scan {
                        src: parse_src(toks[2])?,
                        extent: parse_num(toks[3], "scan extent")?,
                    },
                    (other, _) => return err(format!("unknown or malformed stage {other:?}")),
                };
                case.stages.push(Stage {
                    op,
                    directives: Vec::new(),
                });
            }
            "sched" if toks.len() >= 3 => {
                let idx: usize = parse_num(toks[1], "stage index")?;
                if idx >= case.stages.len() {
                    return err(format!("sched references undeclared stage {idx}"));
                }
                let d = match parse_directive(&toks[2..]) {
                    Ok(d) => d,
                    Err(e) => return err(e),
                };
                case.stages[idx].directives.push(d);
            }
            other => return err(format!("unknown or malformed line starting {other:?}")),
        }
    }
    if case.stages.is_empty() {
        return Err("case declares no stages".to_string());
    }
    if case.width < 1 || case.height < 1 {
        return Err("case declares no size".to_string());
    }
    Ok(case)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grammar;

    #[test]
    fn generated_cases_round_trip() {
        for seed in 0..150u64 {
            let case = grammar::generate(seed);
            let text = to_text(&case);
            let back = from_text(&text)
                .unwrap_or_else(|e| panic!("seed {seed}: reparse failed: {e}\n{text}"));
            assert_eq!(case, back, "seed {seed} did not round-trip:\n{text}");
        }
    }

    #[test]
    fn malformed_lines_are_rejected_with_line_numbers() {
        assert!(from_text("").is_err());
        assert!(from_text("stage point input addc 1").is_err()); // no size
        let err = from_text("size 4 4\nstage bogus input\n").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        let err =
            from_text("size 4 4\nstage point input addc 1\nsched 3 parallel y\n").unwrap_err();
        assert!(err.contains("undeclared stage"), "{err}");
    }

    #[test]
    fn update_directives_round_trip() {
        let text = "size 9 5\nstage reduce input 2 3\n\
                    sched 0 update split r0.x 2 guard_with_if\n\
                    sched 0 update split x 4 predicate\n\
                    sched 0 update vectorize x_i\n\
                    sched 0 update parallel y\n";
        let case = from_text(text).unwrap();
        assert_eq!(
            case.stages[0].directives[0],
            Directive::Update(Box::new(Directive::Split {
                dim: "r0.x".to_string(),
                factor: 2,
                tail: TailStrategy::GuardWithIf,
            }))
        );
        assert_eq!(from_text(&to_text(&case)).unwrap(), case);
        crate::run::run_case(&case).expect("the scheduled window sum matches its reference");
        let err = from_text("size 4 4\nstage scan input 2\nsched 0 update bogus\n").unwrap_err();
        assert!(err.contains("line 3"), "{err}");
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let case = grammar::generate(7);
        let mut text = String::from("# a comment\n\n");
        text.push_str(&to_text(&case));
        assert_eq!(from_text(&text).unwrap(), case);
    }
}
