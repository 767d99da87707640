//! Driving one case through the full differential contract.
//!
//! Every case is lowered once and realized four ways with identical
//! bindings:
//!
//! 1. `Backend::Interp` — the reference semantics;
//! 2. `Backend::Compiled` at `OptLevel::None` (raw linearize → emit);
//! 3. `Backend::Compiled` at `OptLevel::Default` (full pass pipeline);
//! 4. like 3, but realized *into* a recycled buffer from a [`BufferPool`].
//!
//! All four must produce **bit-identical** outputs, and 2–4 must match the
//! interpreter's counters exactly (`peak_bytes_live` excluded — it depends
//! on parallel timing; the pooled run additionally excludes the pool
//! hit/miss counters its acquisition path touches).
//!
//! The engines can agree on a wrong answer: a lowering bug that both
//! execute faithfully passes the matrix. So the interpreter's output must
//! also match a fifth realization that does not depend on the schedule —
//! the same case with every directive except `compute_inline` removed,
//! realized by the interpreter on one thread. Inlining stays because both
//! engines evaluate f32 arithmetic in f64 lanes and round only at stores:
//! inlining a stage removes a store, and with it a rounding point.
//!
//! An admitted case that fails to realize is also a failure: admission
//! means it lowered, so any rejection downstream is a bug.

use std::sync::Arc;

use halide_exec::{Backend, OptLevel, Realizer};
use halide_ir::ScalarType;
use halide_lower::Module;
use halide_runtime::{Buffer, BufferPool, CounterSnapshot};

use crate::build::{self, BuiltCase};
use crate::grammar::{Directive, FuzzCase};

/// The deterministic input image for a case: small mixed-sign values,
/// exactly representable in f32, independent of the seed so corpus cases
/// are self-contained.
pub fn make_input(width: i64, height: i64) -> Buffer {
    Buffer::from_fn_2d(ScalarType::Float(32), width, height, |x, y| {
        ((x * 31 + y * 17) % 13) as f64 - 6.0
    })
}

fn counters_for_compare(mut c: CounterSnapshot, pooled: bool) -> CounterSnapshot {
    c.peak_bytes_live = 0;
    if pooled {
        c.pool_hits = 0;
        c.pool_misses = 0;
    }
    c
}

/// Compares `got` bit for bit against `want`, which `want_from` produced.
fn compare_outputs(label: &str, got: &Buffer, want: &[f64], want_from: &str) -> Result<(), String> {
    let a = got.to_f64_vec();
    if a.len() != want.len() {
        return Err(format!(
            "{label}: output has {} elements, {want_from} produced {}",
            a.len(),
            want.len()
        ));
    }
    for (i, (x, y)) in a.iter().zip(want.iter()).enumerate() {
        if x.to_bits() != y.to_bits() {
            return Err(format!(
                "{label}: outputs diverge at flat index {i}: got {x}, {want_from} says {y}"
            ));
        }
    }
    Ok(())
}

fn compare_counters(
    label: &str,
    got: CounterSnapshot,
    want: &CounterSnapshot,
    pooled: bool,
) -> Result<(), String> {
    let got = counters_for_compare(got, pooled);
    if &got != want {
        return Err(format!(
            "{label}: counters diverge from the interpreter:\n  got:  {got:?}\n  want: {want:?}"
        ));
    }
    Ok(())
}

/// Admits (lowers) `case` and runs the full differential matrix.
///
/// # Errors
///
/// Returns a description of the first divergence (or admission/realization
/// error) found. Any `Err` from an admitted case is a bug somewhere in the
/// stack.
pub fn run_case(case: &FuzzCase) -> Result<(), String> {
    let (built, module) = build::admit(case)?;
    run_case_lowered(case, &built, &module)
}

/// `case` without its schedule: every directive except `compute_inline`
/// removed — the reference of the invariance check.
fn unscheduled(case: &FuzzCase) -> FuzzCase {
    let mut reference = case.clone();
    for stage in &mut reference.stages {
        stage
            .directives
            .retain(|d| matches!(d, Directive::ComputeInline));
    }
    reference
}

/// The realize-and-compare half of [`run_case`], on the module `built`
/// lowered for `case` ([`BuiltCase::admit`]). The invariance reference is
/// lowered through `built` too, so this reschedules its `Func`s.
///
/// # Errors
///
/// Same contract as [`run_case`].
pub fn run_case_lowered(case: &FuzzCase, built: &BuiltCase, module: &Module) -> Result<(), String> {
    let input = make_input(case.width, case.height);
    let extents = [case.width, case.height];
    let run = |backend: Backend, opt: OptLevel| {
        Realizer::new(module)
            .input(build::INPUT_NAME, input.clone())
            .threads(case.threads)
            .backend(backend)
            .opt_level(opt)
            .realize(&extents)
    };

    let interp = run(Backend::Interp, OptLevel::Default)
        .map_err(|e| format!("interp: realization failed: {e}"))?;
    let want = interp.output.to_f64_vec();
    let want_counters = counters_for_compare(interp.counters, false);
    let want_counters_pooled = counters_for_compare(want_counters.clone(), true);

    for (label, opt) in [
        ("compiled opt=none", OptLevel::None),
        ("compiled opt=default", OptLevel::Default),
    ] {
        let got =
            run(Backend::Compiled, opt).map_err(|e| format!("{label}: realization failed: {e}"))?;
        compare_outputs(label, &got.output, &want, "interpreter")?;
        compare_counters(label, got.counters, &want_counters, false)?;
    }

    // Pooled output: dirty a pooled buffer, recycle it, and realize into it.
    // Zero-fill-on-acquire makes this indistinguishable from a fresh buffer;
    // if it is not, either the pool or an engine is lying.
    let label = "compiled opt=default pooled-output";
    let pool = Arc::new(BufferPool::default());
    let dirty = pool.acquire(ScalarType::Float(32), &extents);
    dirty.set_coords_f64(&[0, 0], 999.0);
    drop(dirty);
    let out = pool.acquire(ScalarType::Float(32), &extents).detach();
    let pooled = Realizer::new(module)
        .input(build::INPUT_NAME, input.clone())
        .threads(case.threads)
        .backend(Backend::Compiled)
        .opt_level(OptLevel::Default)
        .realize_into(out)
        .map_err(|e| format!("{label}: realization failed: {e}"))?;
    compare_outputs(label, &pooled.output, &want, "interpreter")?;
    compare_counters(label, pooled.counters, &want_counters_pooled, true)?;

    // The scheduled interpreter output is the side under test: report it as
    // diverging from the unscheduled reference.
    let label = "schedule invariance: scheduled interpreter output";
    let reference = built
        .admit(&unscheduled(case))
        .map_err(|e| format!("{label}: {e}"))?;
    let reference = Realizer::new(&reference)
        .input(build::INPUT_NAME, input)
        .threads(1)
        .backend(Backend::Interp)
        .realize(&extents)
        .map_err(|e| format!("{label}: reference realization failed: {e}"))?;
    compare_outputs(
        label,
        &interp.output,
        &reference.output.to_f64_vec(),
        "unscheduled reference (inlines kept)",
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grammar::{self, Directive, PointOp, Source, Stage, StageOp};

    #[test]
    fn a_simple_case_passes_the_matrix() {
        let case = FuzzCase {
            seed: 0,
            width: 7,
            height: 5,
            threads: 2,
            stages: vec![
                Stage {
                    op: StageOp::Stencil {
                        src: Source::Input,
                        taps: vec![(-1, 0, 1), (0, 0, 2), (1, 0, 1)],
                        div: 4,
                    },
                    directives: vec![Directive::ComputeAt {
                        consumer: 1,
                        dim: "y".to_string(),
                    }],
                },
                Stage {
                    op: StageOp::Point {
                        src: Source::Stage(0),
                        op: PointOp::Threshold(1),
                    },
                    directives: vec![
                        Directive::Split {
                            dim: "x".to_string(),
                            factor: 4,
                            tail: Default::default(),
                        },
                        Directive::Vectorize("x_i".to_string()),
                    ],
                },
            ],
        };
        run_case(&case).unwrap();
    }

    #[test]
    fn the_invariance_reference_keeps_only_inlining() {
        let mut case = grammar::generate(0);
        case.stages[0].directives = vec![
            Directive::ComputeInline,
            Directive::Parallel("y".to_string()),
        ];
        let reference = unscheduled(&case);
        assert_eq!(
            reference.stages[0].directives,
            vec![Directive::ComputeInline]
        );
        assert!(reference.stages[1..]
            .iter()
            .all(|s| s.directives.is_empty()));
        assert_eq!(reference.stages.len(), case.stages.len());
    }

    #[test]
    fn generated_cases_pass_the_matrix() {
        // A quick smoke sweep; the binary and CI run far more.
        for seed in 0..25u64 {
            let case = grammar::generate(seed);
            run_case(&case).unwrap_or_else(|e| panic!("seed {seed}: {e}\ncase: {case:#?}"));
        }
    }
}
